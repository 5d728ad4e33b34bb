type point = { binding : Binding.t; total_cost : int; worst_load : int }

let dominates a b =
  a.total_cost <= b.total_cost && a.worst_load <= b.worst_load
  && (a.total_cost < b.total_cost || a.worst_load < b.worst_load)

let m_frontiers = Obs.Registry.counter "pareto.frontiers"
let m_points = Obs.Registry.counter "pareto.points"
let m_tasks = Obs.Registry.counter "pareto.tasks"

let frontier ?(jobs = 1) ?(capacity = Schedule.default_capacity) tech apps =
  let jobs = Par.resolve_jobs jobs in
  let start_ns = Obs.Clock.now_ns () in
  Obs.Metric.incr m_frontiers;
  let apps_arr = Array.of_list apps in
  let nodes = Search.nodes tech apps_arr in
  let processor_cost = Tech.processor_cost tech in
  (* every capacity-feasible leaf, through the explorer's walker:
     prefix tasks at the split depth, each subtree enumerated on the
     pool *)
  let tasks =
    Explore.split ~capacity ~processor_cost ~nodes
      ~n_apps:(Array.length apps_arr)
      ~depth:(Search.split_depth ~jobs ~n:(Array.length nodes) ~branching:2)
      (Search.zero ())
  in
  Obs.Metric.add m_tasks (Array.length tasks);
  let results =
    Par.map ~jobs
      (fun t ->
        let leaves = ref [] in
        Explore.leaves ~capacity ~processor_cost ~nodes t
          (fun vec ~cost ~worst_load ->
            leaves := (cost, worst_load, Array.copy vec) :: !leaves);
        !leaves)
      tasks
  in
  (* Sorted by cost, then load, then the decision vector — the canonical
     binding order of {!Binding.compare} —, a leaf is on the frontier
     exactly when its load is below every load seen before it: that
     drops dominated points and keeps, for each objective vector, its
     lex-least binding as the representative, whatever order the tasks
     returned in.  Only the frontier's bindings are built. *)
  let frontier_points =
    List.rev
      (fst
         (List.fold_left
            (fun (kept, min_load) (total_cost, worst_load, vec) ->
              if worst_load < min_load then
                ( { binding = Explore.materialize ~nodes vec; total_cost;
                    worst_load }
                  :: kept,
                  worst_load )
              else (kept, min_load))
            ([], max_int)
            (List.sort compare
               (Array.fold_left (fun acc l -> List.rev_append l acc) [] results))))
  in
  Obs.Metric.add m_points (List.length frontier_points);
  Obs.Registry.record_span ~name:"pareto.frontier_ns" ~start_ns
    ~dur_ns:(Obs.Clock.elapsed_ns start_ns);
  frontier_points

let pp_point ppf p =
  Format.fprintf ppf "cost=%d load=%d [%a]" p.total_cost p.worst_load
    Binding.pp p.binding
