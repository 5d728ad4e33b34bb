(** Parsing and regression-gating of the [bench-explore/v1] perf
    trajectory (the JSON array that [bench/main.exe explore-json]
    appends to, see docs/BENCH.md).

    The gate compares the freshest record against the one before it:
    a CI run first appends a record for the current tree, then calls
    {!check_file}, so the baseline is the last committed record. *)

type run = {
  jobs : int;
  wall_s : float;
  cost : int option;
  explored : int option;
      (** decision nodes expanded; [None] for records without the field *)
  binding_digest : string option;
      (** digest of the returned binding; [None] for records written
          before the field existed *)
}

type workload = {
  w_name : string;
  runs : run list;
  sim_speedup : float option;
      (** the ["sim"] object's compiled-vs-interpreted speedup; [None]
          for records written before the field existed *)
  family_compiled_speedup : float option;
      (** the ["family_compiled"] object's one-featured-pass
          ({!Sim.Family_compiled}) vs N-per-config-passes speedup;
          [None] for records without it.  Older records may also carry
          a ["family"] object for an engine since removed; it is
          ignored. *)
}

type record = {
  label : string;  (** empty when the record carries no label *)
  max_jobs : int;
  workloads : workload list;
}

val record_of_json : Obs.Json.t -> (record, string) result
val records_of_string : string -> (record list, string) result

val wall_floor_s : float
(** Timer floor of the wall arm, 100 us: a (workload, job count) pair
    whose baseline wall is below it is not gated, because scheduling
    jitter of a few microseconds exceeds any relative bound there. *)

val check :
  ?tolerance:float ->
  baseline:record option ->
  fresh:record ->
  unit ->
  (string, string list) result
(** Gate one fresh record against an optional baseline.  Fails when

    - a workload's optimal cost differs across job counts, or
    - a workload's binding digest differs across job counts (every job
      count must return the same binding) — skipped for records whose
      runs lack the digest;

    and, against a baseline over the same workload set (a [--tiny]
    record against a full-size one compares nothing), when

    - a workload explored more nodes at [jobs = 1] than the baseline
      did — no tolerance: the count is deterministic, so any increase
      is a real change of the search;
    - a workload's wall time at a job count both records ran exceeds
      the baseline's by more than [tolerance] (default [0.3], i.e. 30%)
      — skipped where the baseline wall is below {!wall_floor_s};
    - a per-field speedup (["sim"], ["family_compiled"]) regressed past
      [(1 - tolerance)] of the baseline's — compared only when both
      records carry the field, so mixed-version trajectories skip the
      arm rather than fail.

    [Ok summary] describes what was checked; [Error failures] lists
    every violated condition. *)

val check_file : ?tolerance:float -> string -> (string, string list) result
(** Load a trajectory file and run {!check} with the last record as
    fresh and the previous one (if any) as baseline. *)
