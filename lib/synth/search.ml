module I = Spi.Ids

type node = {
  pid : I.Process_id.t;
  sw : int option;
  hw : int option;
  members : int array;
}

exception Pinned_unavailable of I.Process_id.t * Binding.impl

(* Memoized once per solve: technology options with any pin applied, and
   application membership as an index list — the inner loop touches only
   the applications a process belongs to, instead of re-deriving
   membership and re-querying the technology map at every node. *)
let nodes ?(fixed = Binding.empty) tech apps =
  let members pid =
    let hits = ref [] in
    Array.iteri
      (fun i (a : App.t) ->
        if I.Process_id.Set.mem pid a.App.procs then hits := i :: !hits)
      apps;
    Array.of_list (List.rev !hits)
  in
  let node pid =
    let o = Tech.options_of tech pid in
    let pin = Binding.impl_of pid fixed in
    (match pin with
    | Some Binding.Hw when Option.is_none o.Tech.hw ->
      raise (Pinned_unavailable (pid, Binding.Hw))
    | Some Binding.Sw when Option.is_none o.Tech.sw ->
      raise (Pinned_unavailable (pid, Binding.Sw))
    | Some _ | None -> ());
    {
      pid;
      sw =
        (if pin = Some Binding.Hw then None
         else Option.map (fun s -> s.Tech.load) o.Tech.sw);
      hw =
        (if pin = Some Binding.Sw then None
         else Option.map (fun h -> h.Tech.area) o.Tech.hw);
      members = members pid;
    }
  in
  Array.of_list
    (List.map node
       (I.Process_id.Set.elements (App.union_procs (Array.to_list apps))))

(* A shallow static split: just enough seeds for the cursor to hand
   every domain a distinct well-estimated subtree at start-up.  Load
   balance does not depend on this depth — tasks re-split on demand
   whenever a worker goes hungry — and a deep static split is actively
   harmful: seeds all enqueue at pool start, so a wide seed array means
   the last-claimed seeds sit queued for most of the run, which is
   exactly the [par.task_queue_wait_ns] tail the deques are meant to
   remove. *)
let split_depth ~jobs ~n ~branching =
  let target = jobs * 16 in
  let rec depth d reach =
    if reach >= target || d >= 14 then d else depth (d + 1) (reach * branching)
  in
  max 0 (min (n - 2) (depth 0 1))

type counters = { mutable explored : int; mutable pruned : int }

let zero () = { explored = 0; pruned = 0 }

let add_counters a b =
  a.explored <- a.explored + b.explored;
  a.pruned <- a.pruned + b.pruned;
  a

let deadline = function
  | None ->
    let cancelled = Atomic.make false in
    (cancelled, fun () -> Atomic.get cancelled)
  | Some dl ->
    let cancelled = Atomic.make (Obs.Clock.now_ns () >= dl) in
    ( cancelled,
      fun () ->
        Atomic.get cancelled
        ||
        if Obs.Clock.now_ns () >= dl then begin
          Atomic.set cancelled true;
          true
        end
        else false )

type 'a incumbent = { cost : int; vec : int array; best : 'a option }

let empty = { cost = max_int; vec = [||]; best = None }

(* Can a leaf below the prefix [choices.(0 .. i-1)] precede [vec]?  Yes
   when the prefix is lexicographically smaller than [vec]'s, no when
   larger; an equal prefix leaves the suffix open, except at a leaf,
   where equality is the incumbent itself. *)
let rec prefix_precedes choices i vec j =
  if j = i then i < Array.length choices
  else
    let c = choices.(j) and v = vec.(j) in
    if c < v then true
    else if c > v then false
    else prefix_precedes choices i vec (j + 1)

let admits inc ~lower choices i =
  lower < inc.cost || (lower = inc.cost && prefix_precedes choices i inc.vec 0)

let precedes ~cost vec inc =
  cost < inc.cost || (cost = inc.cost && compare vec inc.vec < 0)

let offer incumbent ~cost vec best =
  let cand = { cost; vec = Array.copy vec; best = Some best } in
  let rec go () =
    let cur = Atomic.get incumbent in
    if not (precedes ~cost vec cur) then false
    else if Atomic.compare_and_set incumbent cur cand then true
    else go ()
  in
  go ()
