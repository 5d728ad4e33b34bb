module I = Spi.Ids

type impl = Sw | Hw
type t = impl I.Process_id.Map.t

let empty = I.Process_id.Map.empty
let bind pid impl t = I.Process_id.Map.add pid impl t
let of_list entries = List.fold_left (fun t (p, i) -> bind p i t) empty entries
let impl_of pid t = I.Process_id.Map.find_opt pid t
let mem pid t = I.Process_id.Map.mem pid t
let processes t = List.map fst (I.Process_id.Map.bindings t)

let filter_set wanted t =
  I.Process_id.Map.fold
    (fun pid impl acc ->
      if impl = wanted then I.Process_id.Set.add pid acc else acc)
    t I.Process_id.Set.empty

let sw_processes t = filter_set Sw t
let hw_processes t = filter_set Hw t

let merge a b =
  let conflicts = ref [] in
  let merged =
    I.Process_id.Map.union
      (fun pid ia ib ->
        if ia = ib then Some ia
        else begin
          conflicts := pid :: !conflicts;
          Some ia
        end)
      a b
  in
  match !conflicts with [] -> Ok merged | cs -> Error (List.rev cs)

let compare a b =
  I.Process_id.Map.compare
    (fun x y ->
      match (x, y) with Sw, Hw -> -1 | Hw, Sw -> 1 | Sw, Sw | Hw, Hw -> 0)
    a b

let union_prefer_left a b = I.Process_id.Map.union (fun _ ia _ -> Some ia) a b
let cardinal t = I.Process_id.Map.cardinal t

let pp_impl ppf = function
  | Sw -> Format.pp_print_string ppf "SW"
  | Hw -> Format.pp_print_string ppf "HW"

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (pid, impl) ->
      Format.fprintf ppf "%a:%a" I.Process_id.pp pid pp_impl impl)
    ppf (I.Process_id.Map.bindings t)
