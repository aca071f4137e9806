"""Self-tests of the benchmark at smoke size."""
