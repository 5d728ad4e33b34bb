(** Multi-processor HW/SW partitioning.

    Generalizes {!Explore} from one shared processor to a heterogeneous
    set: each software process is placed on a specific processor, each
    processor has its own capacity and cost, and a processor is paid for
    only when something runs on it.  Schedulability remains
    per-application and per-processor — mutually exclusive variants
    still share every processor they are placed on.

    Like {!Explore}, there is one search: the placement tree is split
    into independent subtree tasks (each with its own load matrix),
    sorted by lower bound, seeded by diving the best one, and pruned
    against a shared incumbent on a {!Par} pool that [jobs] sizes.
    One walker serves every n-processor tree walk: the prefix split and
    the task searches are the same depth-first recursion, stopped at a
    given depth with a different leaf action, and it allocates nothing
    per node.  {!Explore} holds the one-processor walker.

    Tie-break: among cost-optimal placements the one returned has the
    lexicographically least decision vector — processes in pid order,
    each placed on a processor in processor-list order before [Hw] (see
    {!Search}) — so the placement is identical for every job count. *)

type processor = {
  id : Spi.Ids.Resource_id.t;
  capacity : int;
  cost : int;
}

val processor : name:string -> capacity:int -> cost:int -> processor

type placement = Hw | Sw_on of Spi.Ids.Resource_id.t

type binding = placement Spi.Ids.Process_id.Map.t

type solution = {
  binding : binding;
  total_cost : int;
  processors_used : Spi.Ids.Resource_id.t list;
  asic_area : int;
  worst_load : (Spi.Ids.Resource_id.t * int) list;
      (** per processor, the highest per-application load *)
  explored : int;
      (** decision nodes expanded, aggregated across domains (same
          counter semantics as {!Explore.solution}) *)
  pruned : int;
      (** subtrees cut by the incumbent bound or a capacity overload *)
  degraded : bool;
      (** the deadline expired before the search proved optimality (see
          {!Explore.solution}); always [false] without a deadline *)
}

val optimal :
  ?jobs:int ->
  ?accept:(binding -> bool) ->
  ?deadline_ns:int ->
  Tech.t ->
  processor list ->
  App.t list ->
  solution option
(** Cost-minimal feasible placement, exact (branch and bound).  The
    [Tech.t] software load figures apply uniformly to every processor
    (homogeneous execution times; heterogeneous costs/capacities).
    [jobs] follows the {!Explore.solve} convention: the pool size
    (default 1, 0 for the machine's recommended domain count), never a
    different answer; [accept] must be thread-safe when [jobs > 1].
    [deadline_ns] follows {!Explore.solve}: an absolute
    {!Obs.Clock} reading past which the search stops expanding and
    returns its best incumbent with [degraded = true] ([None] when no
    incumbent was found in time).
    @raise Invalid_argument when [processors] contains duplicate ids or
    [jobs < 0].
    @raise Not_found when an application process is missing from the
    technology library. *)

val to_simple : binding -> Binding.t
(** Forgets the placement, keeping SW/HW — for reuse of the single-
    processor cost and timing helpers. *)

val pp_placement : Format.formatter -> placement -> unit
val pp_solution : Format.formatter -> solution -> unit
