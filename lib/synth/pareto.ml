type point = { binding : Binding.t; total_cost : int; worst_load : int }
type frontier = { points : point list; degraded : bool }

let dominates a b =
  a.total_cost <= b.total_cost && a.worst_load <= b.worst_load
  && (a.total_cost < b.total_cost || a.worst_load < b.worst_load)

let m_frontiers = Obs.Registry.counter "pareto.frontiers"
let m_points = Obs.Registry.counter "pareto.points"

let frontier ?(jobs = 1) ?(capacity = Schedule.default_capacity) ?deadline_ns
    tech apps =
  if capacity < 0 then invalid_arg "Pareto.frontier: capacity < 0";
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_frontiers;
  (* the deadline cut a solve short: its binding is not proved optimal,
     so nothing from it is emitted *)
  let exception Cut in
  let solve capacity =
    match Explore.solve ~jobs ~capacity ?deadline_ns tech apps with
    | Ok s when not s.Explore.degraded -> Some s
    | Error Explore.Infeasible -> None
    | Ok _ | Error Explore.Deadline_no_incumbent -> raise Cut
    | Error (Explore.Pinned_impl_unavailable _) -> assert false (* no pins *)
  in
  let cost (s : Explore.solution) = s.cost.Cost.total in
  (* ε-constraint descent: the optimum at capacity [L], binding and
     all, is the optimum at every capacity from its load up to [L], so
     solving next at one below its load visits every distinct optimum.
     It is a frontier point unless that next solve keeps its cost. *)
  let points = ref [] in
  let rec sweep = function
    | None -> ()
    | Some (s : Explore.solution) ->
      let next = if s.worst_load = 0 then None else solve (s.worst_load - 1) in
      (match next with
      | Some s' when cost s' = cost s -> ()
      | Some _ | None ->
        points :=
          { binding = s.binding; total_cost = cost s; worst_load = s.worst_load }
          :: !points);
      sweep next
  in
  let degraded =
    match sweep (solve capacity) with () -> false | exception Cut -> true
  in
  let points = List.rev !points in
  Obs.Metric.add m_points (List.length points);
  Obs.Registry.record_span ~name:"pareto.frontier_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  { points; degraded }

let pp_point ppf p =
  Format.fprintf ppf "cost=%d load=%d [%a]" p.total_cost p.worst_load
    Binding.pp p.binding
