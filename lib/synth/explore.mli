(** Design-space exploration: optimal HW/SW partitioning.

    Branch-and-bound over the union of the applications' processes.
    Feasibility (checked incrementally) is per application — mutually
    exclusive variants never share a schedulability budget, which is
    exactly where a variant-aware representation beats both independent
    synthesis and superposition.  The explorer is exact: it returns a
    cost-minimal feasible binding when one exists.

    There is one search: the decision tree is split into independent
    subtree tasks, seeded with greedy completions, ordered
    cheapest-estimate-first and explored software child first on a
    {!Par} pool sharing one incumbent for cross-domain pruning.  [jobs]
    only sizes the pool; at [jobs = 1] the tasks run inline.

    One walker serves every one-processor tree walk: the prefix split,
    the task searches and {!Pareto}'s exhaustive enumeration ({!split},
    {!leaves}) are the same depth-first recursion, stopped at a given
    depth with a different leaf action.  {!Multi} holds the walker for
    several processors.

    Tie-break: when several bindings attain the optimal cost, the one
    returned has the lexicographically least decision vector —
    processes in pid order ({!App.union_procs}), SW before HW (see
    {!Search}).  The binding is therefore identical for every job
    count, for warm and cold runs and whatever the steal timing. *)

type solution = {
  binding : Binding.t;
  cost : Cost.breakdown;
  worst_load : int;  (** highest per-application software load *)
  explored : int;
      (** decision nodes expanded: nodes that survived the bound check
          and branched on a process (aggregated across domains) *)
  pruned : int;
      (** subtrees cut by the incumbent bound or a capacity overload *)
  degraded : bool;
      (** the deadline expired before the search proved optimality: the
          binding is the best incumbent found, feasible and valid, but a
          cheaper (or a cost-equal canonical) one may exist.  Always
          [false] without a deadline. *)
}

type diagnostic =
  | Pinned_impl_unavailable of {
      process : Spi.Ids.Process_id.t;
      impl : Binding.impl;
    }
      (** a [fixed] binding pins [process] to an implementation its
          technology entry does not offer — no completion can exist,
          regardless of capacity *)
  | Infeasible  (** genuine infeasibility: every binding overloads some
          application or is rejected by [accept] *)
  | Deadline_no_incumbent
      (** the deadline expired before any feasible binding was found —
          the instance may or may not be feasible *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val solve :
  ?jobs:int ->
  ?capacity:int ->
  ?fixed:Binding.t ->
  ?accept:(Binding.t -> bool) ->
  ?deadline_ns:int ->
  ?warm:Binding.t ->
  Tech.t ->
  App.t list ->
  (solution, diagnostic) result
(** [jobs] is the pool's domain count (default 1; 0 for the machine's
    recommended domain count, see {!Par.resolve_jobs}); it never changes
    the answer.  [fixed] pins implementations for some
    processes (used by the incremental baseline).  [accept] is an
    additional feasibility filter evaluated on complete bindings —
    e.g. {!Timing.all_satisfied} partially applied, to demand
    latency-path constraints on top of schedulability; with [jobs > 1]
    it is called concurrently from several domains and must be
    thread-safe (the bundled filters are pure).

    [deadline_ns] is an absolute {!Obs.Clock} reading: the search checks
    it cooperatively (every 1024 expanded nodes, on every domain) and
    past it stops expanding, returning the best incumbent found so far
    with [degraded = true] — or [Error Deadline_no_incumbent] when none
    was found.  Without a deadline the search is exact and its results
    are byte-identical to earlier releases.

    [warm] is a previously found binding (e.g. replayed from the
    exploration store): it is re-validated against the current problem —
    pins, capacity, [accept], with uncovered processes completed
    greedily — and, when valid, seeds the incumbent so worse subtrees
    prune immediately.  The search
    still proves optimality and breaks ties canonically, so a warm run
    returns exactly the answer of a cold one — cost, binding and worst
    load; an invalid warm binding is counted and ignored.
    @raise Not_found when an application process is missing from the
    technology library.
    @raise Invalid_argument when [jobs < 0]. *)

val optimal :
  ?jobs:int ->
  ?capacity:int ->
  ?fixed:Binding.t ->
  ?accept:(Binding.t -> bool) ->
  Tech.t ->
  App.t list ->
  solution option
(** {!solve} with the diagnostic collapsed to [None] — for callers that
    only care whether a feasible binding exists. *)

val optimal_exn :
  ?jobs:int ->
  ?capacity:int ->
  ?fixed:Binding.t ->
  ?accept:(Binding.t -> bool) ->
  Tech.t ->
  App.t list ->
  solution
(** @raise Failure with the diagnostic's message when infeasible. *)

val pp_solution : Format.formatter -> solution -> unit

(** {2 The walker, for exhaustive enumeration} *)

type task
(** A subtree of the decision tree: a decided prefix and its loads. *)

val split :
  capacity:int -> processor_cost:int -> nodes:Search.node array ->
  n_apps:int -> depth:int -> Search.counters -> task array
(** The capacity-feasible prefixes of the first [depth] decisions, in
    canonical order; the walk's node counts are added to the counters. *)

val leaves :
  capacity:int -> processor_cost:int -> nodes:Search.node array -> task ->
  (int array -> cost:int -> worst_load:int -> unit) -> unit
(** Calls the function on every capacity-feasible leaf of the task's
    subtree with its decision vector (live only during the call: copy it
    to keep it), total cost and highest per-application load.  Complete
    vectors compare ([compare]) as their bindings do under
    {!Binding.compare}.  Consumes the task. *)

val materialize : nodes:Search.node array -> int array -> Binding.t
(** The binding a complete decision vector stands for. *)
