module I = Spi.Ids

type processor = { id : I.Resource_id.t; capacity : int; cost : int }

let processor ~name ~capacity ~cost =
  if capacity < 1 then invalid_arg "Multi.processor: capacity < 1";
  if cost < 0 then invalid_arg "Multi.processor: negative cost";
  { id = I.Resource_id.of_string name; capacity; cost }

type placement = Hw | Sw_on of I.Resource_id.t
type binding = placement I.Process_id.Map.t

type solution = {
  binding : binding;
  total_cost : int;
  processors_used : I.Resource_id.t list;
  asic_area : int;
  worst_load : (I.Resource_id.t * int) list;
  explored : int;
  pruned : int;
  degraded : bool;
}

let check_processors procs =
  ignore
    (List.fold_left
       (fun seen p ->
         if List.exists (I.Resource_id.equal p.id) seen then
           invalid_arg
             (Format.asprintf "Multi: duplicate processor %a" I.Resource_id.pp
                p.id)
         else p.id :: seen)
       [] procs)

(* Node totals fold into the registry once per optimal call — see the
   note in {!Explore}. *)
let m_nodes = Obs.Registry.counter "multi.nodes_expanded"
let m_pruned = Obs.Registry.counter "multi.pruned"
let m_solves = Obs.Registry.counter "multi.solves"
let m_resplits = Obs.Registry.counter "multi.resplits"
let m_deadline_hits = Obs.Registry.counter "multi.deadline_hits"

(* Mutable per-search state: per (application, processor) accumulated
   load and the set of processors in use.  The processor cost of the
   used set is threaded through the recursion incrementally instead of
   being rescanned at every node.  Lower bound: area + cost of
   processors used so far — placements only ever add processors and
   area. *)
type state = { loads : int array array; used : bool array }

let copy_state st =
  { loads = Array.map Array.copy st.loads; used = Array.copy st.used }

(* Decisions are plain ints in a preallocated vector, in the canonical
   order of {!Search}: 0 before node [i] is decided, [1 + c] for
   software on processor [c], [1 + n_cpu] for hardware — so the search
   loop mutates one array slot per decision instead of building a [Map]
   at every node, and a stolen task's state is three flat arrays.  The
   [Map] binding is materialized only at leaves that survive the bound
   check, keeping allocation off the hot path. *)
let choice_sw c = 1 + c
let choice_hw ~n_cpu = 1 + n_cpu

let materialize ~procs_arr ~(nodes : Search.node array) choices =
  let n_cpu = Array.length procs_arr in
  let b = ref I.Process_id.Map.empty in
  for j = 0 to Array.length nodes - 1 do
    let c = choices.(j) in
    if c = choice_hw ~n_cpu then b := I.Process_id.Map.add nodes.(j).pid Hw !b
    else if c > 0 then
      b := I.Process_id.Map.add nodes.(j).pid (Sw_on procs_arr.(c - 1).id) !b
  done;
  !b

let candidate ~procs_arr ~st cost binding area =
  let n_cpu = Array.length procs_arr in
  let n_app = Array.length st.loads in
  let worst_load =
    List.init n_cpu (fun c ->
        let w = ref 0 in
        for a = 0 to n_app - 1 do
          w := max !w st.loads.(a).(c)
        done;
        (procs_arr.(c).id, !w))
  in
  let processors_used =
    List.filter_map
      (fun c -> if st.used.(c) then Some procs_arr.(c).id else None)
      (List.init n_cpu Fun.id)
  in
  {
    binding;
    total_cost = cost;
    processors_used;
    asic_area = area;
    worst_load;
    explored = 0;
    pruned = 0;
    degraded = false;
  }

(* Counter semantics and pruning match {!Explore.search}: [explored]
   counts decision nodes expanded, [pruned] counts subtrees cut by the
   incumbent (in the canonical order of {!Search}) or a capacity
   overload.  Software placements are tried first, processor by
   processor, then hardware: a software placement on an already-used
   processor adds no cost, so this is best-first, and it visits leaves
   in canonical order.  As in {!Explore.search}, the walk covers
   decisions [start .. stop - 1] and calls
   [leaf choices st lower area cpu_cost] at depth [stop]: the full
   search offers the placement there ({!offer_leaf}), the prefix split
   emits a task ({!split}).  [try_split i area cpu_cost] — see
   {!Explore.search}: consulted at every branch node with both a
   hardware and a software option; returning [true] means the hardware
   sibling was captured as a pool task and only the software placements
   descend in place.  The body allocates nothing per node: loads are
   updated by index loops, as in {!Explore.search}. *)
let search ?(try_split = fun _ _ _ -> false) ?(should_stop = fun () -> false)
    ~procs_arr ~(nodes : Search.node array) ~stop ~leaf ~st ~choices
    ~(counters : Search.counters) ~incumbent start area0 cpu_cost0 =
  let n_cpu = Array.length procs_arr in
  let stopped = ref (should_stop ()) in
  (* add [load] to processor [c]'s column of every member application;
     [true] while all of them stay within [capacity] *)
  let rec add_loads members m c capacity load k ok =
    if k = m then ok
    else begin
      let row = st.loads.(members.(k)) in
      let v = row.(c) + load in
      row.(c) <- v;
      add_loads members m c capacity load (k + 1) (ok && v <= capacity)
    end
  in
  let rec go i area cpu_cost =
    let lower = area + cpu_cost in
    if !stopped then ()
    else if not (Search.admits (Atomic.get incumbent) ~lower choices i) then
      counters.pruned <- counters.pruned + 1
    else if i = stop then leaf choices st lower area cpu_cost
    else begin
      counters.explored <- counters.explored + 1;
      if counters.explored land 1023 = 0 && should_stop () then
        stopped := true
      else if
        Option.is_some nodes.(i).hw
        && Option.is_some nodes.(i).sw
        && try_split i area cpu_cost
      then try_sw i area cpu_cost
      else begin
        try_sw i area cpu_cost;
        try_hw i area cpu_cost
      end
    end
  and try_hw i area cpu_cost =
    match nodes.(i).hw with
    | Some a ->
      choices.(i) <- choice_hw ~n_cpu;
      go (i + 1) (area + a) cpu_cost
    | None -> ()
  and try_sw i area cpu_cost =
    match nodes.(i).sw with
    | Some load ->
      let members = nodes.(i).members in
      let m = Array.length members in
      for c = 0 to n_cpu - 1 do
        let p = procs_arr.(c) in
        let was_used = st.used.(c) in
        st.used.(c) <- true;
        if add_loads members m c p.capacity load 0 true then begin
          choices.(i) <- choice_sw c;
          go (i + 1) area (if was_used then cpu_cost else cpu_cost + p.cost)
        end
        else counters.pruned <- counters.pruned + 1;
        if not was_used then st.used.(c) <- false;
        for k = 0 to m - 1 do
          let row = st.loads.(members.(k)) in
          row.(c) <- row.(c) - load
        done
      done
    | None -> ()
  in
  go start area0 cpu_cost0

(* The full search's leaf, as {!Explore.offer_leaf}. *)
let offer_leaf ~procs_arr ~accept ~nodes ~incumbent choices st lower area
    _cpu_cost =
  let binding = materialize ~procs_arr ~nodes choices in
  if accept binding then
    ignore
      (Search.offer incumbent ~cost:lower choices
         (candidate ~procs_arr ~st lower binding area)
        : bool)

(* A subtree task: the decision prefix as the flat choice vector plus
   its incremental state — plain ints and bools throughout, so stealing
   a task moves no closures between domains. *)
type task = {
  t_choices : int array;
  t_area : int;
  t_cpu_cost : int;
  t_state : state;
  t_bound : int;
  t_depth : int;
}

(* The subtrees at [depth] as tasks in canonical order, as
   {!Explore.split}. *)
let split ~procs_arr ~nodes ~n_app ~depth counters =
  let n_cpu = Array.length procs_arr in
  let tasks = ref [] in
  search ~procs_arr ~nodes ~stop:depth
    ~leaf:(fun choices st bound area cpu_cost ->
      tasks :=
        {
          t_choices = Array.copy choices;
          t_area = area;
          t_cpu_cost = cpu_cost;
          t_state = copy_state st;
          t_bound = bound;
          t_depth = depth;
        }
        :: !tasks)
    ~st:
      {
        loads = Array.make_matrix n_app n_cpu 0;
        used = Array.make n_cpu false;
      }
    ~choices:(Array.make (Array.length nodes) 0)
    ~counters ~incumbent:(Atomic.make Search.empty) 0 0 0;
  Array.of_list (List.rev !tasks)

let optimal ?(jobs = 1) ?(accept = fun _ -> true) ?deadline_ns tech
    processors apps =
  let jobs = Par.resolve_jobs jobs in
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_solves;
  (* same cooperative cancellation scheme as {!Explore}: one shared
     latch, polled every 1024 expanded nodes on every domain *)
  let cancelled, should_stop = Search.deadline deadline_ns in
  check_processors processors;
  let procs_arr = Array.of_list processors in
  let n_cpu = Array.length procs_arr in
  let apps_arr = Array.of_list apps in
  let n_app = Array.length apps_arr in
  let nodes = Search.nodes tech apps_arr in
  let n = Array.length nodes in
  (* subtree tasks at the split depth, best-first by bound; the stable
     sort keeps equal bounds in canonical order *)
  let counters = Search.zero () in
  let tasks =
    split ~procs_arr ~nodes ~n_app
      ~depth:(Search.split_depth ~jobs ~n ~branching:(1 + n_cpu))
      counters
  in
  Array.stable_sort (fun a b -> Int.compare a.t_bound b.t_bound) tasks;
  let incumbent = Atomic.make Search.empty in
  let leaf = offer_leaf ~procs_arr ~accept ~nodes ~incumbent in
  (* Root incumbent seeding, as in {!Explore}: dive the best subtree
     before the pool starts, so the pool never starts with a cold
     bound. *)
  if Array.length tasks > 0 then begin
    let t = tasks.(0) in
    search ~should_stop ~procs_arr ~nodes ~stop:n ~leaf ~st:t.t_state
      ~choices:t.t_choices ~counters ~incumbent t.t_depth t.t_area
      t.t_cpu_cost
  end;
  let tasks =
    if Array.length tasks > 0 then Array.sub tasks 1 (Array.length tasks - 1)
    else tasks
  in
  let run_task ctx (acc : Search.counters) t =
    (* Shed the hardware sibling at any branch node while a worker is
       hungry (same scheme as {!Explore}): the snapshot copies the
       task's mutable choice vector and load state; stale entries beyond
       node [i] are overwritten by the thief's own descent before
       [materialize] reads them. *)
    let try_split i area cpu_cost =
      Par.should_split ctx
      && begin
           let a = Option.get nodes.(i).hw in
           let ch = Array.copy t.t_choices in
           ch.(i) <- choice_hw ~n_cpu;
           let pushed =
             Par.push ctx
               {
                 t_choices = ch;
                 t_area = area + a;
                 t_cpu_cost = cpu_cost;
                 t_state = copy_state t.t_state;
                 t_bound = area + a + cpu_cost;
                 t_depth = i + 1;
               }
           in
           if pushed then Obs.Metric.incr m_resplits;
           pushed
         end
    in
    search ~try_split ~should_stop ~procs_arr ~nodes ~stop:n ~leaf
      ~st:t.t_state ~choices:t.t_choices ~counters:acc ~incumbent t.t_depth
      t.t_area t.t_cpu_cost;
    acc
  in
  let counters =
    Search.add_counters counters
      (Par.fold
         ~cancel:(fun () -> Atomic.get cancelled)
         ~jobs ~init:Search.zero ~merge:Search.add_counters ~f:run_task tasks)
  in
  Obs.Metric.add m_nodes counters.explored;
  Obs.Metric.add m_pruned counters.pruned;
  Obs.Registry.record_span ~name:"multi.optimal_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  let degraded = Atomic.get cancelled in
  if degraded then Obs.Metric.incr m_deadline_hits;
  Option.map
    (fun (s : solution) ->
      {
        s with
        explored = counters.explored;
        pruned = counters.pruned;
        degraded;
      })
    (Atomic.get incumbent).Search.best

let to_simple binding =
  I.Process_id.Map.fold
    (fun pid placement acc ->
      let impl = match placement with Hw -> Binding.Hw | Sw_on _ -> Binding.Sw in
      Binding.bind pid impl acc)
    binding Binding.empty

let pp_placement ppf = function
  | Hw -> Format.pp_print_string ppf "HW"
  | Sw_on r -> Format.fprintf ppf "SW@%a" I.Resource_id.pp r

let pp_solution ppf s =
  Format.fprintf ppf "@[<v>cost %d (asics %d, cpus: %s)@,%a@]" s.total_cost
    s.asic_area
    (String.concat ", " (List.map I.Resource_id.to_string s.processors_used))
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (pid, p) ->
         Format.fprintf ppf "%a:%a" I.Process_id.pp pid pp_placement p))
    (I.Process_id.Map.bindings s.binding)
