type point = { binding : Binding.t; total_cost : int; worst_load : int }

let dominates a b =
  a.total_cost <= b.total_cost && a.worst_load <= b.worst_load
  && (a.total_cost < b.total_cost || a.worst_load < b.worst_load)

(* Depth-first walk over decisions [i .. stop - 1], software child
   first, calling [leaf binding area any_sw] at depth [stop] while
   [loads] holds that prefix's per-application loads.  Loads are
   maintained incrementally — a leaf costs O(applications) instead of a
   full schedulability check — and a partial assignment is abandoned as
   soon as one application's load exceeds capacity: software loads only
   grow, so no completion can be feasible. *)
let walk ~capacity ~(nodes : Search.node array) ~loads ~stop ~leaf i binding
    area any_sw =
  let rec go i binding area any_sw =
    if i = stop then leaf binding area any_sw
    else begin
      let nd = nodes.(i) in
      (match nd.sw with
      | Some load ->
        let ok = ref true in
        Array.iter
          (fun ai ->
            loads.(ai) <- loads.(ai) + load;
            if loads.(ai) > capacity then ok := false)
          nd.members;
        if !ok then go (i + 1) (Binding.bind nd.pid Binding.Sw binding) area true;
        Array.iter (fun ai -> loads.(ai) <- loads.(ai) - load) nd.members
      | None -> ());
      match nd.hw with
      | Some a -> go (i + 1) (Binding.bind nd.pid Binding.Hw binding) (area + a) any_sw
      | None -> ()
    end
  in
  go i binding area any_sw

type task = {
  t_binding : Binding.t;
  t_area : int;
  t_any_sw : bool;
  t_loads : int array;
}

let m_frontiers = Obs.Registry.counter "pareto.frontiers"
let m_points = Obs.Registry.counter "pareto.points"
let m_tasks = Obs.Registry.counter "pareto.tasks"

let frontier ?(jobs = 1) ?(capacity = Schedule.default_capacity) tech apps =
  let jobs = Par.resolve_jobs jobs in
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_frontiers;
  let apps_arr = Array.of_list apps in
  let nodes = Search.nodes tech apps_arr in
  let n = Array.length nodes in
  let processor_cost = Tech.processor_cost tech in
  (* split the first decisions into independent subtree tasks *)
  let depth =
    let target = jobs * 8 in
    let rec go d = if 1 lsl d >= target || d >= 10 then d else go (d + 1) in
    max 0 (min (n - 2) (go 0))
  in
  let tasks = ref [] in
  let loads = Array.make (Array.length apps_arr) 0 in
  walk ~capacity ~nodes ~loads ~stop:depth
    ~leaf:(fun binding area any_sw ->
      tasks :=
        { t_binding = binding; t_area = area; t_any_sw = any_sw;
          t_loads = Array.copy loads }
        :: !tasks)
    0 Binding.empty 0 false;
  Obs.Metric.add m_tasks (List.length !tasks);
  let results =
    Par.map ~jobs
      (fun t ->
        let points = ref [] in
        walk ~capacity ~nodes ~loads:t.t_loads ~stop:n
          ~leaf:(fun binding area any_sw ->
            points :=
              {
                binding;
                total_cost = (area + if any_sw then processor_cost else 0);
                worst_load = Array.fold_left max 0 t.t_loads;
              }
              :: !points)
          depth t.t_binding t.t_area t.t_any_sw;
        !points)
      (Array.of_list !tasks)
  in
  (* Sorted by cost, then load, then the canonical binding order (see
     {!Binding.compare}), a point is on the frontier exactly when its
     load is below every load seen before it: that drops dominated
     points and keeps, for each objective vector, its lex-least binding
     as the representative — whatever order the tasks returned in. *)
  let all =
    List.sort
      (fun a b ->
        match Int.compare a.total_cost b.total_cost with
        | 0 -> (
          match Int.compare a.worst_load b.worst_load with
          | 0 -> Binding.compare a.binding b.binding
          | c -> c)
        | c -> c)
      (Array.fold_left (fun acc pts -> List.rev_append pts acc) [] results)
  in
  let frontier_points =
    List.rev
      (fst
         (List.fold_left
            (fun (kept, min_load) p ->
              if p.worst_load < min_load then (p :: kept, p.worst_load)
              else (kept, min_load))
            ([], max_int) all))
  in
  Obs.Metric.add m_points (List.length frontier_points);
  Obs.Registry.record_span ~name:"pareto.frontier_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  frontier_points

let pp_point ppf p =
  Format.fprintf ppf "cost=%d load=%d [%a]" p.total_cost p.worst_load
    Binding.pp p.binding
