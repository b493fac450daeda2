(** The simulated distributed runtime: executes abstract dataflow plans over
    partitioned data and interprets compiled driver programs (thunks,
    broadcast variables, loops — the data-motion model of Fig. 3b).

    Semantics are exact — every operator computes the same bag the native
    {!Emma_lang.Eval} interpreter would — while costs are charged to a
    BSP-style model parameterized by {!Cluster.t} and an engine
    {!Cluster.profile}:

    {ul
    {- {b lineage}: binding a bag-valued dataflow is lazy; each consumer
       re-executes the plan (counted in [recomputes]) unless the plan was
       compiled with a [Cache] root, which materializes eagerly — in memory
       for Spark-like profiles, on the simulated DFS (paying I/O per reuse)
       for Flink-like ones;}
    {- {b joins} pick broadcast vs. repartition just-in-time from actual
       input sizes, and skip shuffles for co-partitioned inputs;}
    {- {b aggBy} performs map-side partial aggregation, shuffling one
       aggregate per key per partition, while [groupBy] shuffles everything
       and fails (Spark) or spills (Flink) when a single group exceeds the
       per-slot memory budget;}
    {- {b UDF captures} are shipped as broadcast variables, collecting
       distributed operands first.}} *)

module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Eval = Emma_lang.Eval

exception Engine_failure of string
(** Unrecoverable job failure (e.g. an oversized reduce group on a
    non-spilling engine). *)

exception Engine_timeout of float
(** Raised as soon as the simulated clock exceeds the configured timeout;
    carries the clock value. *)

exception Engine_cancelled of float * string
(** Cooperative cancellation: raised at the next safepoint after a
    {!Cancel} token is requested or the query's [deadline_s] budget is
    exhausted; carries the simulated clock and the cancellation reason.
    Safepoints are every cost charge and every partition-dispatch
    barrier — the same choke points [timeout_s] uses — so cancellation
    also lands mid-recovery and mid-admission-wait. When several limits
    trip on the same charge, [Engine_timeout] wins (the operator limit),
    then the deadline, then an external cancel request. The run's
    metrics record the event in [cancellations]. *)

type t
(** An engine instance: cluster + profile + metrics + table storage. *)

type udf_mode = Config.udf_mode =
  | Interp  (** tree-walk every UDF body per tuple with {!Emma_lang.Eval} *)
  | Compiled
      (** stage each UDF body once through {!Emma_lang.Compile} into a
          host closure (the default) *)

(** Chunk-size policy for the adaptive-chunking barriers. Operators that
    are order-preserving list homomorphisms (map, flatMap, filter, cross
    and broadcast-join probes, shuffle routing) split each partition into
    chunks of this many physical rows before dispatching to the
    work-stealing pool, so a skewed partition's tail can be stolen
    mid-partition; outputs are reassembled in order, keeping results and
    every cost-model metric bit-identical across policies. [Chunk_auto]
    (the default) sizes chunks from the cost model's per-row estimate with
    a granularity floor (each chunk carries at least a small fraction of
    one task-scheduling cost in per-row work, so cheap rows get coarse
    chunks);
    [Chunk_fixed k] pins k rows per chunk (the CLI's [--chunk N]).
    Non-homomorphic per-partition work (fold accumulators, groupBy/aggBy
    tables, sort-based distinct/minus, repartition-join builds) is never
    chunked — splitting a float fold would reassociate additions. *)
type chunk_spec = Config.chunk_spec = Chunk_auto | Chunk_fixed of int

val create :
  ?timeout_s:float ->
  ?cancel:Cancel.t ->
  ?config:Config.t ->
  ?udf_mode:udf_mode ->
  ?faults:Faults.t ->
  ?checkpoint_every:int ->
  ?mem_budget:float ->
  ?spill:bool ->
  ?max_inflight:int ->
  ?pool:Emma_util.Pool.t ->
  ?chunk:chunk_spec ->
  ?trace:Emma_util.Trace.t ->
  cluster:Cluster.t ->
  profile:Cluster.profile ->
  Eval.ctx ->
  t
(** The [Eval.ctx] provides the named input tables and receives written
    sinks, so engine runs and native runs are directly comparable.

    [config] carries every knob below in one record ({!Config.t}, default
    {!Config.default}); its [domains]/[plan_cache] fields are session
    concerns and ignored here, as are the serve-layer knobs
    [max_queue]/[breaker]/[drain_after_s]. The per-knob optional
    arguments are deprecated shims kept for one release: when passed they
    override the corresponding [config] field — [timeout_s] in
    particular falls back to [config.timeout_s] when the shim is absent.
    New code should build a [Config] and pass only [?config] (see the
    README migration guide).

    [cancel] is a cooperative {!Cancel} token: requesting it makes the
    run raise {!Engine_cancelled} at the next safepoint (every cost
    charge, every partition-dispatch barrier). [config.deadline_s] is
    checked at the same safepoints and raises the same exception once the
    run's own simulated time exceeds the budget.

    [udf_mode] (default [Compiled]) selects how worker-side UDF bodies
    execute. Both modes share the same cost charging and UDF tally, so
    results and every cost-model metric are bit-identical between them —
    only [wall_time_s] moves; the interpreter is retained as the
    differential-testing oracle.

    [faults] is a deterministic fault plan (default {!Faults.none}): it
    injects task-attempt failures, executor losses, shuffle-fetch
    failures, stragglers and driver-loop losses at seeded or scripted
    points, which the engine answers with retries, lineage recomputation,
    speculative copies, blacklisting and checkpoint restores (knobs in
    {!Cluster.recovery}). Results are bit-identical to the fault-free
    run; only the simulated clock and the recovery counters in
    {!Metrics} change. Recovery time is charged through the same clock
    the timeout watches, so [timeout_s] fires mid-recovery too.

    [checkpoint_every] (default off) checkpoints driver-loop state —
    assigned loop variables and stateful bags — every [k] completed
    iterations, priced as DFS I/O and counted in
    [checkpoints]/[checkpoint_bytes]; an injected loop loss then restarts
    from the last checkpoint instead of the loop entry. Each checkpoint
    record carries a CRC32 of a deterministic fingerprint of its state;
    on restore the engine verifies the checksum and a corrupted record
    (injected via {!Faults.Ckpt_corrupt}) is skipped — counted in
    [checkpoint_corruptions] — falling back to the previous good one,
    paying the DFS read for every record examined.

    [mem_budget] (logical bytes per slot, default unbounded) turns on
    deterministic memory governance ({!Memman}): every state-building
    operator — [groupBy]/[aggBy] hash tables, join build sides, fold
    partials, sort buffers — reserves its per-slot state size before
    running. Overflowing slots either spill to disk ([spill = true]:
    priced as DFS I/O in the dedicated [mem_spills]/[mem_spill_bytes]
    channels) or are OOM-killed and retried at halved parallelism
    ([spill = false]: counted in [oom_kills]; the job fails with
    [Engine_failure] once even one slot per node cannot hold the state).
    The budget also caps the [Mem]-cache: cached bags past
    [mem_budget × dop] total are LRU-evicted (counted in
    [cache_evictions]/[evicted_bytes]) and rebuilt through lineage on
    next use. Results are bit-identical to the unbounded run for any
    sufficient budget; only [sim_time_s] and the memory counters move.
    Without [mem_budget] the engine only tracks [mem_peak_bytes].

    [max_inflight] (>= 1, default unbounded) gates job admission: a
    submission past the in-flight budget waits for the earliest slot
    release (completion + per-job overhead), counted in
    [jobs_queued]/[queue_wait_s] and charged to the simulated clock.

    [pool] is the domain pool the multicore backend runs per-partition
    operator work on (default: {!Emma_util.Pool.default}). Shuffles, the
    driver, and all cost charging stay on the calling domain, so results
    and every cost-model metric — [sim_time_s], [shuffle_bytes], [stages],
    even [udf_invocations] — are bit-identical whatever the pool size;
    only [wall_time_s] and the [par_*] counters reflect the parallelism.

    [trace] is a span tracer (default: {!Emma_util.Trace.global}, i.e.
    disabled unless the CLI/bench installed one). When enabled the engine
    emits job spans around each submitted dataflow, stage spans per
    executed operator (tagged operator kind and output size), partition
    task spans on the worker domains (tagged partition index and domain
    id), and byte-motion counters. Tracing is pure observation: it is
    never consulted by cost charging, so every cost-model metric is
    bit-identical with tracing on or off. *)

val metrics : t -> Metrics.t

type dval =
  | Dscalar of Eval.rvalue
  | Dbag of handle  (** distributed bag (lazy lineage or materialized) *)
  | Dstateful of state_handle

and handle
and state_handle

val run : t -> Cprog.t -> Value.t
(** Executes a compiled driver program and returns its result value
    (distributed results are collected). Raises [Engine_failure] /
    [Engine_timeout]. *)

val force_bag : t -> handle -> Value.t list
(** Collects a distributed bag to the driver (charging the motion). *)

type trace_event = {
  ev_op : string;
  ev_records : float;  (** logical input records *)
  ev_bytes : float;  (** logical input bytes *)
  ev_clock : float;  (** simulated clock when the operator started *)
}

val trace : t -> trace_event list
(** Chronological record of the executed operators with their input sizes
    — the engine's observability hook (surfaced by the CLI's [--trace]). *)

(** {2 Partition barriers, exposed for tests} Each returns a bag whose
    size statistics its tasks measured. *)

val par_map_parts_chunked : t -> (Value.t list -> Value.t list) -> Pdata.t -> Pdata.t
(** The chunked barrier of map and flatMap; clears the key property. *)

val par_map_parts_preserving_chunked :
  t -> (Value.t list -> Value.t list) -> Pdata.t -> Pdata.t
(** The chunked barrier of filter; keeps the key property. *)

val shuffle_by : t -> Plan.udf -> (Value.t -> Value.t) -> Pdata.t -> Pdata.t
(** Hash-partitions by the key (charging the shuffle) unless already
    co-partitioned by an alpha-equal key. *)
