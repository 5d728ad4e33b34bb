(** A work-stealing domain pool for search-tree fan-out.

    The synthesis explorers split their decision trees into independent
    subtree tasks; this module runs such task arrays on OCaml 5 domains.
    Scheduling is three-tiered, in claim order:

    + each worker drains its own bounded {!Ws_deque} of dynamically
      pushed children, LIFO — depth-first through the subtree it is
      already hot on;
    + an empty worker claims the next {e seed} task through a shared
      atomic cursor, so a seed array sorted by priority (e.g. the
      branch-and-bound greedy estimate) is consumed best-first across
      the whole pool regardless of the domain count;
    + when both are dry it steals, FIFO, from a random victim's deque —
      idle domains drain the oldest (shallowest, largest) outstanding
      subtrees of whichever domain is overloaded.

    Tasks re-split {e on demand}: {!should_split} reports whether any
    worker is currently hungry, and a task that can cheaply cut off an
    independent child should then {!push} it.  A front-loaded workload
    — one seed subtree dwarfing the rest — therefore spreads across
    every domain instead of pinning one, which is what removes the long
    [par.task_queue_wait_ns] tail of the old static split.

    Failure semantics: the first exception raised by any task wins and
    is re-raised after all domains have joined; every task claimed after
    the failure is published is cancelled (skipped), not run.

    Task functions must be thread-safe: they may share state only
    through [Atomic] values or their own synchronization.

    Observability (see docs/OBSERVABILITY.md): [par.tasks], [par.pools],
    [par.task_queue_wait_ns] (push-to-claim latency per task),
    [par.task_run_ns], [par.steals] (plus per-worker [par.steals.w<i>]),
    [par.steal_failures] (lost steal races), [par.deque_overflows]
    (pushes refused on a full deque), and per-domain steal instants on
    the {!Domain_trace} lanes. *)

val available_jobs : unit -> int
(** Domains this machine can usefully run, i.e.
    [Domain.recommended_domain_count ()]. *)

val resolve_jobs : int -> int
(** The [jobs] convention of every explorer and CLI verb: [0] means
    {!available_jobs}, any positive count is kept.
    @raise Invalid_argument when negative. *)

type 'a ctx
(** A running worker's handle on the pool, passed to {!fold} tasks. *)

val worker_index : 'a ctx -> int
(** The calling worker's slot, in [0 .. jobs - 1]. *)

val should_split : 'a ctx -> bool
(** [true] while at least one worker is failing to find work {e and} the
    calling worker's own deque is drained — the moment when cutting off
    and {!push}ing an independent child pays.  The own-deque condition
    throttles shedding to one outstanding child per worker: a previously
    shed task that no thief has claimed yet is already available, so
    snapshotting more siblings would only burn allocations. *)

val push : 'a ctx -> 'a -> bool
(** Offer a child task to the calling worker's own deque (LIFO for the
    owner, FIFO for thieves).  [false] when the deque is full — the
    caller keeps the child and runs it inline; nothing was enqueued. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every element of [tasks] and
    returns the results in task order.  With [jobs <= 1] (or fewer than
    two tasks) everything runs in the calling domain.  Otherwise [min jobs (Array.length tasks)] domains
    claim tasks best-first through the seed cursor.  The first
    exception raised by any task cancels all tasks not yet started and
    is re-raised after all domains have joined.
    @raise Invalid_argument when [jobs < 1]. *)

val fold :
  ?cancel:(unit -> bool) ->
  jobs:int ->
  init:(unit -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  f:('a ctx -> 'acc -> 'a -> 'acc) ->
  'a array ->
  'acc
(** [fold ~jobs ~init ~merge ~f seeds] runs [seeds] (and every task
    {!push}ed while processing them) to completion and combines the
    results.  [cancel] (default: never) is polled between task claims
    on every worker: once it returns [true] no further task starts —
    tasks already running are expected to observe the same condition
    through their own cooperative checks — and the accumulators folded
    so far are merged and returned as usual, so a deadline-cancelled
    search still yields its best incumbent.  Each worker domain threads its own accumulator, seeded by
    [init ()], through every task it happens to execute; after the pool
    quiesces the per-worker accumulators are [merge]d (in worker order)
    on the calling domain.  [f] must therefore be commutative up to
    [merge] — branch-and-bound folds (min over costs, sums over
    counters) are.  With [jobs = 1] the pool degenerates to an in-order
    loop over [seeds] with a local LIFO stack for pushes, in the
    calling domain.  Exception semantics match
    {!map}.
    @raise Invalid_argument when [jobs < 1]. *)
