(** Cost / load Pareto exploration.

    Minimizing cost under a hard capacity is one point of a larger
    trade-off: spending more hardware lowers the processor load (and
    with it, latency slack and headroom for future variants).  This
    module computes the Pareto-optimal frontier of (total cost,
    worst-case application load) over all feasible bindings.

    The worst application load is exactly what the capacity bounds, so
    the frontier comes from {!Explore.solve} alone (the ε-constraint
    method): solve at the requested capacity, then again at one below
    the load of each answer, until the problem is infeasible or an
    answer has load 0.  An answer is a frontier point unless the next
    solve keeps its cost.  Every solve lowers the capacity, so a
    frontier takes at most [capacity + 1] solves — in practice about
    one per point — and keeps no binding besides the points'. *)

type point = {
  binding : Binding.t;
  total_cost : int;
  worst_load : int;
}

type frontier = {
  points : point list;
  degraded : bool;
      (** the deadline cut a solve short: [points] is the part of the
          frontier proved before it, a prefix (possibly empty) of the
          full one.  Always [false] without a deadline. *)
}

val frontier :
  ?jobs:int ->
  ?capacity:int ->
  ?deadline_ns:int ->
  Tech.t ->
  App.t list ->
  frontier
(** Pareto-optimal feasible bindings with load at most [capacity],
    sorted by increasing cost (and hence decreasing load).  Dominated
    and duplicate-valued points are absent.  Empty when no feasible
    binding exists.

    Each objective vector is represented by its lexicographically least
    binding ({!Binding.compare}, the explorers' tie-break): a point's
    load [L'] is the least capacity that keeps its cost (the solve at
    [L' - 1] costs more), so every binding of that cost within [L'] has
    load exactly [L'], and the solve at [L'] returns the lex-least of
    them.  The frontier — vectors and representatives — is therefore
    identical for every job count.  [jobs] follows the {!Explore.solve}
    convention: it sizes the pool each solve runs on (default 1, 0
    auto).

    [deadline_ns] is an absolute {!Obs.Clock} reading passed to every
    solve.  At the first solve it cuts short, the sweep stops and
    returns the points proved so far with [degraded = true]; a degraded
    solve's binding is never emitted.
    @raise Invalid_argument when [capacity < 0] or [jobs < 0].
    @raise Not_found when an application process is missing from the
    technology library. *)

val dominates : point -> point -> bool
(** [dominates a b] when [a] is no worse on both axes and better on at
    least one. *)

val pp_point : Format.formatter -> point -> unit
