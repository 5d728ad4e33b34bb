(** Cost / load Pareto exploration.

    Minimizing cost under a hard capacity is one point of a larger
    trade-off: spending more hardware lowers the processor load (and
    with it, latency slack and headroom for future variants).  This
    module enumerates the Pareto-optimal frontier of (total cost,
    worst-case application load) over all feasible bindings — small
    instances only, as the enumeration is exhaustive.  The feasible
    bindings come from {!Explore}'s one-processor walker
    ({!Explore.split}, {!Explore.leaves}); this module only keeps the
    non-dominated ones. *)

type point = {
  binding : Binding.t;
  total_cost : int;
  worst_load : int;
}

val frontier : ?jobs:int -> ?capacity:int -> Tech.t -> App.t list -> point list
(** Pareto-optimal feasible bindings, sorted by increasing cost (and
    hence decreasing load).  Dominated and duplicate-valued points are
    removed.  Empty when no feasible binding exists.  Each objective
    vector is represented by its lexicographically least binding
    ({!Binding.compare}, the explorers' tie-break), so the frontier —
    vectors and representatives — is identical for every job count.
    [jobs] follows the {!Explore.solve} convention: it sizes the pool
    the subtree tasks run on (default 1, 0 auto). *)

val dominates : point -> point -> bool
(** [dominates a b] when [a] is no worse on both axes and better on at
    least one. *)

val pp_point : Format.formatter -> point -> unit
