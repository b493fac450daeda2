(** Partitioned distributed collections: the engine's runtime representation
    of a DataBag. Partition count equals the cluster DOP; [part_key] records
    an established hash partitioning (the plan property joins and
    aggregations test to skip shuffles).

    {b Logical scaling.} Experiments run the cost model at the paper's data
    volumes while materializing laptop-scale physical rows. Each collection
    carries two multipliers set by provenance: [rmult] (logical records per
    physical record) and [bmult] (logical bytes per physical byte). A
    [Read] of a scaled table introduces the cluster's scale; element-wise
    operators preserve it; aggregations collapse it — an [aggBy] output has
    one record per key whether the input was scaled or not, which is
    exactly why map-side combining wins.

    {b Size statistics.} A bag's record count, physical bytes (summed
    [Value.byte_size], an exact [int]), per-partition bytes and largest
    record are computed at most once: by the tasks that built the
    partitions ([?sizes] of {!make}) or, for bags built serially, on the
    first size query. The record is private, so every bag comes from the
    constructors below and its statistics always describe its own
    partitions. *)

module Value = Emma_value.Value
module Plan = Emma_dataflow.Plan

type size = { records : int; bytes : int; largest : int }
(** Size of one partition or chunk: record count, summed
    [Value.byte_size], and the largest record's (0 when empty). *)

val zero : size

val add : size -> size -> size
(** Size of the concatenation: integer sums and maxima, so any grouping of
    chunks gives the same result. *)

val measure : Value.t list -> size
(** Walks every record once; pure, so partition tasks may call it. *)

type stats

type t = private {
  parts : Value.t list array;
  part_key : Plan.udf option;
      (** when set, every element [v] of partition [i] satisfies
          [hash (key v) mod nparts = i] for this key UDF *)
  rmult : float;  (** logical records per physical record *)
  bmult : float;  (** logical bytes per physical byte *)
  mutable stats : stats option;  (** [None] until measured *)
}

val make :
  ?part_key:Plan.udf -> ?rmult:float -> ?bmult:float -> ?sizes:size array -> Value.t list array -> t
(** Multipliers default to 1. [sizes], when given, holds [measure] of each
    partition; without it the bag is measured on first use. *)

val nparts : t -> int

val of_list :
  ?pool:Emma_util.Pool.t -> ?rmult:float -> ?bmult:float -> nparts:int -> Value.t list -> t
(** Round-robin partitioning (no key property); multipliers default to 1.
    With [pool], the per-partition slices are materialized and measured in
    parallel on the domain pool — the layout is identical to the sequential
    path. *)

val of_table : ?pool:Emma_util.Pool.t -> nparts:int -> Value.t list -> t * bool
(** [of_list ~nparts rows] at multipliers 1, built and measured once per
    physical row list and partition count, and shared afterwards: the flag
    is [true] when the bag was reused. The memo is keyed on the list's
    identity ([==]), so a structurally equal copy, or a table rewritten by
    a sink, is a miss; it does not keep the list alive, so an entry goes
    when its table does. Callers must not mutate the shared partitions
    ({!with_mult} applies a table's scale without a copy). *)

val live_tables : unit -> int
(** Row lists with a live {!of_table} entry, for tests. *)

val with_mult : rmult:float -> bmult:float -> t -> t
(** Same partitions under new multipliers; the statistics carry over. *)

val to_list : t -> Value.t list

val records : t -> int
(** Physical record count. *)

val bytes : t -> float
(** Physical bytes (an exact integer). *)

val largest_record : t -> float
val part_bytes : t -> float array
val logical_records : t -> float
val logical_bytes : t -> float

val repartition : nparts:int -> key:Plan.udf -> (Value.t -> Value.t) -> t -> t
(** Hash-partitions by the evaluated key and records the partitioning
    property; multipliers are preserved. *)

val co_partitioned : t -> Plan.udf -> bool
(** Whether the data is already hash-partitioned by an alpha-equal key. *)

val map_parts : (Value.t list -> Value.t list) -> t -> t
(** Narrow (partition-local) transformation; clears the key property,
    preserves multipliers. *)

val map_parts_preserving : (Value.t list -> Value.t list) -> t -> t
(** Narrow transformation that cannot change element identity w.r.t. the
    partitioning key (e.g. a filter); keeps the key property. *)

val union : t -> t -> t
(** Zips partitions pairwise; clears the key property; multipliers are the
    pairwise maxima. Measured sides give a measured union, with no walk. *)

type counters = { built : int; measured : int }

val counters : unit -> counters
(** Bags built by the constructors ([with_mult] excluded) and bags
    measured, process-wide, for tests: a bag is measured at most once. *)
