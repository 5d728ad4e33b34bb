(* perfbench: the end-to-end daemon benchmark.

     main.exe --daemon BIN --dir DIR --workload NAME --seed N --seconds S
       --trace 0|1

   [--trace 0] runs the end-to-end measurement against a spawned
   [BIN serve]; [--trace 1] runs the traced in-process replay.  The last
   line of standard output is the result object.  perfbench/run.py
   builds [BIN] and this program, then calls it. *)

let () =
  let daemon = ref "" and dir = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--daemon", Arg.Set_string daemon, "BIN the spi-variants executable");
      ("--dir", Arg.Set_string dir, "DIR working directory (socket, journals)");
      ("--workload", Arg.Set_string workload, "NAME synth-stream | sim-family | large-model");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --daemon BIN --dir DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let kind =
    match Perfbench.Workload.of_name !workload with
    | Some k -> k
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !daemon = "" || !dir = "" then begin
    prerr_endline "--daemon and --dir are required";
    exit 2
  end;
  let metrics, attempted, failed, correct =
    if !trace = 0 then
      Perfbench.E2e.run ~exe:!daemon ~dir:!dir ~kind ~seed:!seed ~seconds:!seconds
    else Perfbench.Traced.run ~exe:!daemon ~dir:!dir ~kind ~seed:!seed
  in
  print_endline (Perfbench.Stat.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
