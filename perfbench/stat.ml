(* Order statistics and the result line. *)

(* nearest rank: the smallest sample with at least [p] of the samples at
   or below it *)
let percentile p samples =
  match List.sort compare samples with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median = percentile 0.5
let ms_of_ns ns = float_of_int ns /. 1e6
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The result object, printed as the last line of standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  let module J = Obs.Json in
  J.to_string ~minify:true
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ] ))
                metrics) );
       ])

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.name m.value m.unit_)
    metrics
