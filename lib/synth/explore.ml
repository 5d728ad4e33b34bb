module I = Spi.Ids

type solution = {
  binding : Binding.t;
  cost : Cost.breakdown;
  worst_load : int;
  explored : int;
  pruned : int;
  degraded : bool;
}

type diagnostic =
  | Pinned_impl_unavailable of {
      process : I.Process_id.t;
      impl : Binding.impl;
    }
  | Infeasible
  | Deadline_no_incumbent

let pp_diagnostic ppf = function
  | Pinned_impl_unavailable { process; impl } ->
    Format.fprintf ppf
      "process %a is pinned to %a but its technology entry offers no %a option"
      I.Process_id.pp process Binding.pp_impl impl Binding.pp_impl impl
  | Infeasible -> Format.pp_print_string ppf "no feasible binding"
  | Deadline_no_incumbent ->
    Format.pp_print_string ppf
      "deadline expired before any feasible binding was found"

(* Observability: node totals are folded into the registry once per
   solve (and per parallel task), never from the search loop itself, so
   instrumentation adds a handful of atomic operations to a search that
   expands millions of nodes.  Incumbent improvements and the
   time-to-first-incumbent gauge are bumped from the (rare) improve
   path. *)
let m_nodes = Obs.Registry.counter "explore.nodes_expanded"
let m_pruned = Obs.Registry.counter "explore.pruned"
let m_solves = Obs.Registry.counter "explore.solves"
let m_tasks = Obs.Registry.counter "explore.tasks"
let m_improvements = Obs.Registry.counter "explore.incumbent_improvements"
let m_ttfi = Obs.Registry.gauge "explore.time_to_first_incumbent_ns"
let m_resplits = Obs.Registry.counter "explore.resplits"
let m_deadline_hits = Obs.Registry.counter "explore.deadline_hits"
let m_warm_accepted = Obs.Registry.counter "explore.warm_starts_accepted"
let m_warm_rejected = Obs.Registry.counter "explore.warm_starts_rejected"

(* The branch-and-bound core.  Search state: index into [nodes], the
   decision vector [choices], accumulated ASIC area, whether any process
   went to software (the processor cost trigger), and the
   per-application software loads in [loads].  Lower bound of a partial
   assignment: area so far + processor cost if any software so far —
   every completion only adds cost.  A partial assignment dies as soon
   as one application's load exceeds capacity (software loads only
   grow), or when {!Search.admits} rules out that any of its leaves
   precedes the incumbent in the canonical (cost, decision vector)
   order.

   Children are visited software first: the software child always
   carries the lower bound (software adds no area), so this is
   best-first descent, and it is also the canonical order — decisions
   are encoded SW = 1 < HW = 2, so a depth-first walk meets leaves in
   increasing vector order.  Counter semantics: {!Search.counters}. *)
let choice_sw = 1
let choice_hw = 2

(* Rebuild a [Binding.t] from the mutable decision vector.  Called only
   at leaves that survive the bound check — those are incumbent
   improvements, so this stays off the hot path and the search loop
   itself allocates nothing.  (With several domains time-slicing few
   cores, per-node allocation is poison: every minor collection is a
   stop-the-world rendezvous across all domains.) *)
let materialize ~(nodes : Search.node array) choices =
  let b = ref Binding.empty in
  for j = 0 to Array.length nodes - 1 do
    if choices.(j) = choice_hw then
      b := Binding.bind nodes.(j).pid Binding.Hw !b
    else if choices.(j) = choice_sw then
      b := Binding.bind nodes.(j).pid Binding.Sw !b
  done;
  !b

(* The recursion is written with mutually recursive child functions and
   index loops rather than local closures or [Array.iter]: the body
   must not allocate per node, or minor collections (stop-the-world
   rendezvous across domains) dominate the parallel run time. *)
(* [search] walks decisions [start .. stop - 1] and calls
   [leaf choices loads lower area any_sw] at depth [stop], while
   [choices] and [loads] hold that prefix.  A full search stops at [n]
   and its leaf offers the binding to the incumbent ({!offer_leaf}); the
   prefix split stops at the split depth and its leaf emits a task
   ({!split}).  The leaf runs at leaves only, so the hot path pays one
   compared variable for it. *)
(* [try_split i area any_sw] is consulted at branch nodes where both
   children exist: returning [true] means the caller captured the
   hardware sibling as a pool task, so only the software child descends
   in place.  The check runs mid-descent, so a task deep in its subtree
   still sheds work the moment another worker goes hungry — but only
   down to [split_floor]: below it the remaining subtree is too small to
   be worth shipping, and the guard keeps the hot deep nodes free of the
   hook's atomic reads (a plain int compare instead). *)
(* [should_stop] is the cooperative cancellation hook next to
   [try_split]: it is consulted once every 1024 expanded nodes — a
   single [land] on the hot path between polls, so a deadline costs
   nothing measurable and a run without one is byte-identical — and
   once it fires [stopped] latches and the recursion unwinds without
   expanding further nodes (the incumbent found so far is still valid,
   it is just not proved optimal). *)
let search ?(try_split = fun _ _ _ -> false) ?(split_floor = -1)
    ?(should_stop = fun () -> false) ~capacity ~processor_cost
    ~(nodes : Search.node array) ~stop ~leaf ~loads ~choices
    ~(counters : Search.counters) ~incumbent start area0 any_sw0 =
  (* a task claimed after the deadline expands nothing *)
  let stopped = ref (should_stop ()) in
  (* hoisted so the recursive closures are allocated once per call, not
     once per node *)
  let rec add_loads members m load k ok =
    if k = m then ok
    else begin
      let ai = members.(k) in
      let v = loads.(ai) + load in
      loads.(ai) <- v;
      add_loads members m load (k + 1) (ok && v <= capacity)
    end
  in
  let rec go i area any_sw =
    let lower = area + if any_sw then processor_cost else 0 in
    if !stopped then ()
    else if not (Search.admits (Atomic.get incumbent) ~lower choices i) then
      counters.pruned <- counters.pruned + 1
    else if i = stop then leaf choices loads lower area any_sw
    else begin
      counters.explored <- counters.explored + 1;
      if counters.explored land 1023 = 0 && should_stop () then
        stopped := true
      else if
        i < split_floor
        && Option.is_some nodes.(i).hw
        && Option.is_some nodes.(i).sw
        && try_split i area any_sw
      then
        (* hardware sibling shipped to the pool — best-first child
           continues in place *)
        sw_child i area any_sw
      else begin
        sw_child i area any_sw;
        hw_child i area any_sw
      end
    end
  and hw_child i area any_sw =
    match nodes.(i).hw with
    | Some a ->
      choices.(i) <- choice_hw;
      go (i + 1) (area + a) any_sw
    | None -> ()
  and sw_child i area _any_sw =
    match nodes.(i).sw with
    | Some load ->
      let members = nodes.(i).members in
      let m = Array.length members in
      if add_loads members m load 0 true then begin
        choices.(i) <- choice_sw;
        go (i + 1) area true
      end
      else counters.pruned <- counters.pruned + 1;
      for k = 0 to m - 1 do
        loads.(members.(k)) <- loads.(members.(k)) - load
      done
    | None -> ()
  in
  go start area0 any_sw0

let worst_load = Array.fold_left Int.max 0

(* The full search's leaf: a leaf that survives the bound check precedes
   the incumbent, so it is offered when [accept] takes it. *)
let offer_leaf ~accept ~nodes ~incumbent ~on_improve choices loads lower _area
    _any_sw =
  let binding = materialize ~nodes choices in
  if accept binding then
    if Search.offer incumbent ~cost:lower choices (binding, worst_load loads)
    then on_improve lower

(* Complete the decision vector [vec] from node [from] on, given the
   loads, area and software flag of its prefix: a process follows
   [pick i] when that names an implementation — failing when the option
   is missing or the software load does not fit — and is otherwise
   placed greedily, in software when the loads allow it, in hardware
   otherwise.  One linear pass, no backtracking: [Some (cost, vec,
   worst load)] or [None]. *)
let complete ~capacity ~processor_cost ~(nodes : Search.node array) ~pick vec
    loads from area any_sw =
  let n = Array.length nodes in
  let rec place i area any_sw =
    if i = n then
      Some
        ( (area + if any_sw then processor_cost else 0),
          vec,
          Array.fold_left max 0 loads )
    else
      let nd = nodes.(i) in
      let sw_fits =
        match nd.sw with
        | None -> false
        | Some load ->
          Array.for_all (fun ai -> loads.(ai) + load <= capacity) nd.members
      in
      let sw () =
        let load = Option.get nd.sw in
        Array.iter (fun ai -> loads.(ai) <- loads.(ai) + load) nd.members;
        vec.(i) <- choice_sw;
        place (i + 1) area true
      and hw () =
        match nd.hw with
        | Some a ->
          vec.(i) <- choice_hw;
          place (i + 1) (area + a) any_sw
        | None -> None
      in
      match pick i with
      | Some Binding.Hw -> hw ()
      | Some Binding.Sw -> if sw_fits then sw () else None
      | None -> if sw_fits then sw () else hw ()
  in
  place from area any_sw

type task = {
  t_choices : int array;  (** full-length decision vector, prefix filled *)
  t_area : int;
  t_any_sw : bool;
  t_loads : int array;
  t_bound : int;
  t_depth : int;  (** first undecided node — the task's subtree root *)
}

(* The subtrees at [depth] as independent tasks, each carrying its own
   snapshot of the prefix's choices and loads, in canonical (software
   first) leaf order.  The split runs without the deadline poll and with
   no incumbent yet, so it prunes on capacity only, and its node counts
   fold into [counters]. *)
let split ~capacity ~processor_cost ~(nodes : Search.node array) ~n_apps
    ~depth counters =
  let tasks = ref [] in
  search ~capacity ~processor_cost ~nodes ~stop:depth
    ~leaf:(fun choices loads bound area any_sw ->
      tasks :=
        {
          t_choices = Array.copy choices;
          t_area = area;
          t_any_sw = any_sw;
          t_loads = Array.copy loads;
          t_bound = bound;
          t_depth = depth;
        }
        :: !tasks)
    ~loads:(Array.make n_apps 0)
    ~choices:(Array.make (Array.length nodes) 0)
    ~counters ~incumbent:(Atomic.make Search.empty) 0 0 false;
  Array.of_list (List.rev !tasks)

(* The search is best-first at two levels.  Tasks from {!split} are
   ordered by the cost of a greedy completion of their prefix and run on
   a domain pool with a shared atomic incumbent for cross-domain
   pruning, claimed cheapest-estimate-first through the pool's cursor;
   inside a task the lower-bound child (software) is descended first.
   The greedy completions also seed the incumbent, so the most
   promising subtrees run against a tight bound from the first node and
   the expensive subtrees are pruned wholesale.  [jobs] only sizes the
   pool (and the static split, {!Search.split_depth}); at [jobs = 1] the
   pool runs the tasks inline, in the same order. *)
let branch_and_bound ~start_ns ~deadline_ns ~warm ~jobs ~capacity
    ~processor_cost ~accept ~(nodes : Search.node array) ~n_apps =
  (* one latch shared by every domain: whichever worker's throttled
     clock poll crosses the deadline first publishes the cancellation,
     the others observe it at their next poll (at most 1024 nodes
     later), and the pool stops claiming queued tasks; an
     already-expired deadline collapses the search before it starts,
     and the seeding below still provides the incumbent *)
  let cancelled, should_stop = Search.deadline deadline_ns in
  let n = Array.length nodes in
  let counters = Search.zero () in
  let tasks =
    split ~capacity ~processor_cost ~nodes ~n_apps
      ~depth:(Search.split_depth ~jobs ~n ~branching:2)
      counters
  in
  (* Greedy completion of a task prefix: place each remaining process in
     software when the loads allow it, in hardware otherwise.  The
     result is a feasible solution of the task's subtree (when every
     process has the needed option), which serves two purposes:

     - the greedy completions seed the shared incumbent with real
       candidates before any domain starts, so no worker searches with
       a cold [max_int] bound;
     - tasks are scheduled cheapest-estimate-first.  The greedy cost is
       an upper bound on the subtree optimum, which predicts solution
       quality far better than the lower bound: a prefix that commits
       everything to software looks unbeatable to the bound yet burns
       the capacity that its completion then pays for in area. *)
  let greedy_complete t =
    complete ~capacity ~processor_cost ~nodes
      ~pick:(fun _ -> None)
      (Array.copy t.t_choices) (Array.copy t.t_loads) t.t_depth t.t_area
      t.t_any_sw
  in
  let estimates = Array.map greedy_complete tasks in
  let order = Array.init (Array.length tasks) Fun.id in
  let estimate i =
    match estimates.(i) with Some (c, _, _) -> c | None -> max_int
  in
  Array.sort
    (fun a b ->
      match Int.compare (estimate a) (estimate b) with
      | 0 -> Int.compare tasks.(a).t_bound tasks.(b).t_bound
      | c -> c)
    order;
  let tasks = Array.map (fun i -> tasks.(i)) order in
  let incumbent = Atomic.make Search.empty in
  (* a validated warm incumbent competes with the greedy completions on
     equal terms: the canonical order keeps the one that precedes *)
  (match warm with
  | Some (cost, vec, binding, worst) ->
    ignore (Search.offer incumbent ~cost vec (binding, worst) : bool)
  | None -> ());
  Array.iter
    (function
      | Some (cost, vec, worst) ->
        let binding = materialize ~nodes vec in
        if accept binding then
          ignore (Search.offer incumbent ~cost vec (binding, worst) : bool)
      | None -> ())
    estimates;
  Obs.Metric.add m_tasks (Array.length tasks);
  (* the seeding above is the first incumbent when it exists (and the
     first sample of the descent track); otherwise the first improvement
     below records the gauge *)
  let seed_cost = (Atomic.get incumbent).Search.cost in
  let have_incumbent = Atomic.make (seed_cost < max_int) in
  if Atomic.get have_incumbent then begin
    Obs.Metric.set m_ttfi (Obs.Clock.elapsed_ns start_ns);
    Domain_trace.record_improvement ~cost:seed_cost
  end;
  let on_improve cost =
    if not (Atomic.exchange have_incumbent true) then
      Obs.Metric.set m_ttfi (Obs.Clock.elapsed_ns start_ns);
    Obs.Metric.incr m_improvements;
    Domain_trace.record_improvement ~cost
  in
  let leaf = offer_leaf ~accept ~nodes ~incumbent ~on_improve in
  (* Root incumbent dive (same scheme as {!Multi.optimal}): solve the
     best-estimated subtree before the pool starts.  The greedy
     completion only bounds that subtree's optimum from above; diving it
     to the bottom usually lands the true global optimum, so the pool
     then runs every remaining seed — and every speculatively shed
     sibling — against a tight bound instead of discovering it
     concurrently while domains contend for cores. *)
  if Array.length tasks > 0 then begin
    let t = tasks.(0) in
    search ~should_stop ~capacity ~processor_cost ~nodes ~stop:n ~leaf
      ~loads:t.t_loads ~choices:t.t_choices ~counters ~incumbent t.t_depth
      t.t_area t.t_any_sw
  end;
  let tasks =
    if Array.length tasks > 0 then Array.sub tasks 1 (Array.length tasks - 1)
    else tasks
  in
  (* Run the tasks on the work-stealing pool.  Each worker threads its
     own node counters; the answer lives in the shared incumbent.  A
     task whose subtree root still has siblings to offer re-splits while
     any worker is hungry: the hardware child (never the lower bound) is
     snapshotted and pushed onto the owner's deque for thieves to drain
     FIFO, and the software child — best-first — continues in place on
     the task's own arrays.  Re-splitting allocates per {e split}, not
     per node, so the search loop itself stays allocation-free. *)
  let run_task ctx (acc : Search.counters) t =
    let task_ns = Obs.Clock.now_ns () in
    (* Shed the hardware sibling at any branch node while a worker is
       hungry.  The snapshot copies the task's mutable arrays: entries
       beyond node [i] are stale exploration residue, but every path to
       a leaf overwrites its whole suffix before [materialize] reads
       it, and the bound check only reads the decided prefix, so the
       thief never observes them. *)
    let try_split i area any_sw =
      Par.should_split ctx
      && begin
           let a = Option.get nodes.(i).hw in
           let hw_choices = Array.copy t.t_choices in
           hw_choices.(i) <- choice_hw;
           let pushed =
             Par.push ctx
               {
                 t_choices = hw_choices;
                 t_area = area + a;
                 t_any_sw = any_sw;
                 t_loads = Array.copy t.t_loads;
                 t_bound = area + a + (if any_sw then processor_cost else 0);
                 t_depth = i + 1;
               }
           in
           if pushed then Obs.Metric.incr m_resplits;
           (* deque full: the sibling was never enqueued — the caller
              keeps both children in place *)
           pushed
         end
    in
    (* a shed below [n - 12] ships a subtree of at most [2^12] nodes —
       sub-millisecond work that costs the thief more in claim latency
       than it buys in balance *)
    search ~try_split ~split_floor:(n - 12) ~should_stop ~capacity
      ~processor_cost ~nodes ~stop:n ~leaf ~loads:t.t_loads
      ~choices:t.t_choices ~counters:acc ~incumbent t.t_depth t.t_area
      t.t_any_sw;
    (* one span per task: per-domain node throughput shows up in the
       span stream without any per-node cost *)
    Obs.Registry.record_span ~name:"explore.task_ns" ~start_ns:task_ns
      ~dur_ns:(Obs.Clock.elapsed_ns task_ns);
    acc
  in
  let counters =
    Search.add_counters counters
      (Par.fold
         ~cancel:(fun () -> Atomic.get cancelled)
         ~jobs ~init:Search.zero ~merge:Search.add_counters ~f:run_task tasks)
  in
  ((Atomic.get incumbent).Search.best, counters, Atomic.get cancelled)

(* Replay a stored binding against the *current* compiled problem: every
   pinned implementation must be respected, every application
   schedulable, and [accept] satisfied.  Processes the stored binding
   does not cover (the model grew since the record was written) are
   completed greedily, so a partial per-application merge still yields a
   seed.  The binding is rebuilt over exactly the node set, so stale
   processes in the stored record neither pollute the cost nor leak into
   the result.  A warm candidate that fails any check is dropped — warm
   starts accelerate, they never decide. *)
let warm_candidate ~capacity ~processor_cost ~accept
    ~(nodes : Search.node array) ~n_apps warm =
  let n = Array.length nodes in
  Option.bind
    (complete ~capacity ~processor_cost ~nodes
       ~pick:(fun i -> Binding.impl_of nodes.(i).pid warm)
       (Array.make n 0) (Array.make n_apps 0) 0 0 false)
    (fun (cost, vec, worst) ->
      let binding = materialize ~nodes vec in
      if accept binding then Some (cost, vec, binding, worst) else None)

let solve ?(jobs = 1) ?(capacity = Schedule.default_capacity) ?fixed
    ?(accept = fun _ -> true) ?deadline_ns ?warm tech apps =
  if capacity < 0 then invalid_arg "Explore.solve: capacity < 0";
  let jobs = Par.resolve_jobs jobs in
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_solves;
  let apps = Array.of_list apps in
  match Search.nodes ?fixed tech apps with
  | exception Search.Pinned_unavailable (process, impl) ->
    Error (Pinned_impl_unavailable { process; impl })
  | nodes ->
    let processor_cost = Tech.processor_cost tech in
    let n_apps = Array.length apps in
    let warm =
      Option.bind warm (fun b ->
          let c =
            warm_candidate ~capacity ~processor_cost ~accept ~nodes ~n_apps b
          in
          Obs.Metric.incr
            (if Option.is_some c then m_warm_accepted else m_warm_rejected);
          c)
    in
    let best, counters, deadline_hit =
      branch_and_bound ~start_ns ~deadline_ns ~warm ~jobs ~capacity
        ~processor_cost ~accept ~nodes ~n_apps
    in
    if deadline_hit then Obs.Metric.incr m_deadline_hits;
    Obs.Metric.add m_nodes counters.explored;
    Obs.Metric.add m_pruned counters.pruned;
    Obs.Registry.record_span ~name:"explore.solve_ns" ~start_ns
      ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
    (match best with
    | None -> Error (if deadline_hit then Deadline_no_incumbent else Infeasible)
    | Some (binding, worst_load) ->
      Ok
        {
          binding;
          cost = Cost.of_binding tech binding;
          worst_load;
          explored = counters.explored;
          pruned = counters.pruned;
          degraded = deadline_hit;
        })

let optimal ?jobs ?capacity ?fixed ?accept tech apps =
  match solve ?jobs ?capacity ?fixed ?accept tech apps with
  | Ok s -> Some s
  | Error _ -> None

let optimal_exn ?jobs ?capacity ?fixed ?accept tech apps =
  match solve ?jobs ?capacity ?fixed ?accept tech apps with
  | Ok s -> s
  | Error d ->
    failwith (Format.asprintf "Explore.optimal: %a" pp_diagnostic d)

let pp_solution ppf s =
  Format.fprintf ppf
    "@[<v>binding: %a@,cost: %a@,worst load: %d (explored %d, pruned %d)%s@]"
    Binding.pp s.binding Cost.pp s.cost s.worst_load s.explored s.pruned
    (if s.degraded then " [degraded: deadline cut the proof short]" else "")
