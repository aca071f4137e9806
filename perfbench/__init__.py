"""The repository benchmark: three serving workloads, one command.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds its inputs from the seed, measures for the given
seconds, checks every output (:mod:`perfbench.check`) and prints its
metrics as the last line of standard output.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics with their bounds.

``BENCHMARK.json`` lists ``burst_shared_prefix`` and
``tiered_long_context`` only; between them they load every layer.
``decode_batch32`` runs with the same command but is not listed: its
rounds stream about 70 MB of KV per step, and on a 2-vCPU host sharing
its L3 cache the step speed moved by up to 40% between runs minutes
apart, so its ``ttft_ms_p50`` (half a batch's drain) spread 0.14-0.26
of its median over 10 seeds against a 0.25 bound.  Dropping it leaves
the time budget for 45-second runs of the other two.

Modules: :mod:`perfbench.workloads` (inputs, stacks and the code that
runs rounds), :mod:`perfbench.check` (certificate oracle and digest),
:mod:`perfbench.metrics` (metric definitions), :mod:`perfbench.layers`
(outside-in tracing of each layer's public entry points) and
:mod:`perfbench.run` (the command).  Self-tests live in
``perfbench/tests``.

Why each workload exists
========================

``decode_batch32`` (closed loop, one engine, batch 32; not listed)
    The paper's own claim: fewer KV bytes fetched per decoded token and
    a faster attention step.  ``core.pruning`` does most of the work
    (score, prune and unpack are about nine tenths of a step);
    ``serving.engine``, ``serving.scheduler`` and ``serving.kv_pool``
    do a little; ``serving.frontend``, ``cluster.router``,
    ``kvstore.radix``, ``kvstore.tiers`` and ``cluster.shard`` do none,
    and ``hw.serving`` prices the steps after the round.  Kernel work
    (chunk-major K, copy-free unpack) shows here first.
``burst_shared_prefix`` (100 requests at once, frontend over a 2-replica router)
    The only workload served through ``AsyncStreamingFrontend`` and
    ``ClusterRouter``: queueing behind chunked prompt ingest, time to
    first token and the client's view of inter-token gaps show here.
    Prompt ingest, admission, routing, radix prefix lookups and
    per-step pricing take half the time; the kernel the other half.
    Prompts share four 1k-token prefixes.  Loads
    ``serving.frontend``, ``cluster.router``, ``serving.scheduler``
    (chunked prefill), ``serving.engine``, ``kvstore.radix``,
    ``serving.kv_pool``, ``core.pruning`` and ``hw.serving`` (priced
    inside the serving loop); bypasses ``kvstore.tiers`` and
    ``cluster.shard``.
``tiered_long_context`` (closed loop, one engine, 2 head shards, tiered)
    The same kernel and pool used differently, with 2k-token prompts
    streamed in 512-token prefill chunks: demotion writes,
    promotions, tier-repair kernel reruns, preemption swap-out/in and
    per-slice kernel calls run beside the reads.  A change that helps
    ``decode_batch32`` but costs tiering or sharding shows here.  Loads
    ``core.pruning``, ``kvstore.tiers``, ``cluster.shard``,
    ``serving.kv_pool`` (swaps), ``serving.engine`` and
    ``serving.scheduler``; bypasses ``serving.frontend``,
    ``cluster.router`` and ``kvstore.radix``.

Which end-to-end metric each layer should move
==============================================

A claim on one layer predicts a change on the workload where the layer
works and **no change** on the workload that bypasses it.

==================  ==========================================  ====================  ===================
layer               end-to-end metrics it should move           most work             little or no work
==================  ==========================================  ====================  ===================
serving.frontend    ttft_ms_tail, itl_ms_p50                    burst_shared_prefix   engine workloads
cluster.router      ttft_ms_p50, ttft_ms_tail, slo_goodput_rps  burst_shared_prefix   engine workloads
serving.scheduler   e2e_tok_s, ttft_ms_p50                      burst_shared_prefix   decode_batch32
serving.engine      e2e_tok_s, ttft_ms_p50, itl_ms_p50          burst_shared_prefix   decode_batch32
core.pruning        decode_tok_s, kv_bytes_per_token            decode_batch32,       burst_shared_prefix
                                                                tiered_long_context
serving.kv_pool     e2e_tok_s, decode_tok_s                     tiered_long_context   decode_batch32
kvstore.radix       ttft_ms_p50, modelled_tok_s                 burst_shared_prefix   engine workloads
kvstore.tiers       decode_tok_s, kv_bytes_per_token,           tiered_long_context   the other two
                    modelled_tok_s
cluster.shard       decode_tok_s, modelled_tok_s                tiered_long_context   the other two
hw.serving          itl_ms_p50 (host cost on the frontend       burst_shared_prefix   engine workloads
                    path), modelled_tok_s                                             (priced after)
trace               none: trace.overhead_frac bounds how far    all                   all
                    traced numbers can be trusted
==================  ==========================================  ====================  ===================

Per-layer metrics of a layer a workload bypasses read 0.

Known defects the benchmark measures (fixing them is later work)
================================================================

* **Router starvation.**  ``burst_shared_prefix`` routes 100 requests to
  2 replicas.  The cold replica's ``AccessCounter.keep_fraction`` is 1.0
  against about 0.001 on the warm one, so least-loaded routing almost
  never picks it: ``cluster.router.replica_share_max`` reads 0.99.
* **Tiered + sharded pricing.**  ``tiered_long_context`` is priced with
  ``ServingSimulator.step_from_tiered``, which omits the all-gather term
  of a sharded step; the engine's own trace prices the same step with
  ``step_from_sharded``, which omits the slow tier.  No pricer charges
  both.  ``hw.serving.sharded_over_tiered_cycles`` is the ratio of the
  two pricers' cycles over the same steps.
* **Prefix-cache host cost.**  Radix digests cost host time on every
  admission while the savings are only modelled transfer:
  ``kvstore.radix.acquire_ms_p50`` is that host time.
* **Inconsistent head scaling.**  The frontend prices cluster steps with
  ``engine_heads=None`` while the engine trace passes its head count, so
  ``modelled_tok_s`` of ``burst_shared_prefix`` is not comparable with the
  bare-engine workloads; compare it only within one workload.
"""
