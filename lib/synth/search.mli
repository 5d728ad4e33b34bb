(** Shared pieces of the exact branch-and-bound explorers ({!Explore},
    {!Multi}): per-process decision nodes, the static split depth and
    the canonical incumbent.

    {b Canonical tie-break.}  Among feasible bindings of equal cost the
    explorers return the one with the lexicographically least
    {e decision vector}.  The vector holds one decision per process in
    pid order — the order of {!App.union_procs}, which is the explorers'
    decision order — and each decision is a positive int in the
    explorer's child order: SW before HW for {!Explore}; software on
    each processor in processor-list order, then HW, for {!Multi}.  That
    is the order in which a software-first depth-first search visits
    the leaves.

    The incumbent holds a (cost, vector) pair, and a subtree survives
    the bound check while its lower bound is below the incumbent's cost
    {e or} equals it with a decided prefix that can still precede the
    incumbent's vector.  The cost-and-vector minimum is therefore never
    pruned, whatever the search order, the seeding (greedy completions,
    warm starts), the job count or the steal timing: every run returns
    the same binding. *)

type node = {
  pid : Spi.Ids.Process_id.t;
  sw : int option;  (** software load, [None] when unavailable or pinned HW *)
  hw : int option;  (** hardware area, [None] when unavailable or pinned SW *)
  members : int array;  (** indices of the applications containing [pid] *)
}

exception Pinned_unavailable of Spi.Ids.Process_id.t * Binding.impl
(** A [fixed] pin names an implementation the process's technology entry
    does not offer. *)

val nodes : ?fixed:Binding.t -> Tech.t -> App.t array -> node array
(** One node per process of the applications' union, in decision order,
    with any [fixed] pin applied to its options.
    @raise Pinned_unavailable on an unsatisfiable pin.
    @raise Not_found when a process is missing from the library. *)

val split_depth : jobs:int -> n:int -> branching:int -> int
(** The depth of the static prefix split over [n] decisions with
    [branching] children per node: the shallowest depth whose
    [branching ^ depth] prefixes reach [jobs * 16] seeds, capped at 14
    and clamped to [0 .. n - 2], so tiny problems become one root
    task. *)

type counters = { mutable explored : int; mutable pruned : int }
(** [explored]: decision nodes expanded — nodes that survive the bound
    check and branch on a process.  [pruned]: subtrees cut by the
    incumbent or a capacity overload.  Complete leaves count as
    neither. *)

val zero : unit -> counters
val add_counters : counters -> counters -> counters
(** Adds the second into the first and returns it — a {!Par.fold}
    merge. *)

val deadline : int option -> bool Atomic.t * (unit -> bool)
(** [(cancelled, should_stop)] for an optional absolute {!Obs.Clock}
    deadline.  [cancelled] is shared by every domain and starts set when
    the deadline has already passed (trees too small for the throttled
    in-search poll still degrade); [should_stop] polls the clock and
    publishes the cancellation once the deadline is crossed. *)

type 'a incumbent = {
  cost : int;  (** [max_int] while nothing was found *)
  vec : int array;  (** the decision vector; 0 marks an undecided slot *)
  best : 'a option;
}

val empty : 'a incumbent

val admits : 'a incumbent -> lower:int -> int array -> int -> bool
(** [admits inc ~lower choices i]: the subtree whose first [i] decisions
    are [choices.(0 .. i-1)] and whose lower bound is [lower] may hold a
    leaf that precedes [inc].  At [i = Array.length choices] (a leaf)
    the vector must precede [inc]'s strictly. *)

val offer : 'a incumbent Atomic.t -> cost:int -> int array -> 'a -> bool
(** Installs [(cost, copy of the vector, best)] when it precedes the
    current incumbent, retrying lost races; [true] when installed. *)
