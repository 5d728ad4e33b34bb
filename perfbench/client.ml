(* The daemon as a separate process, and the single client process that
   drives it: spawn with the daemon's defaults (jobs 1, queue limit 64,
   journal fsync on), a blocking request/response helper, and the
   closed loop over two connections — [work] carries the workload's
   requests one at a time, [probe] pings while work is in flight. *)

module J = Obs.Json

type daemon = { pid : int; socket : string }

let now_ns = Obs.Clock.now_ns

(* [dir] is relative to the working directory: a Unix socket path is
   limited to ~108 bytes, the checkout path is not. *)
let live : daemon list ref = ref []

let spawn ~exe ~dir ~store =
  let socket = Filename.concat dir "serve.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--store"; store |]
          null null null)
  in
  let d = { pid; socket } in
  live := d :: !live;
  d

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap d)

(* no daemon outlives the benchmark, whatever path it exits by *)
let () = at_exit (fun () -> List.iter kill !live)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable scanned : int;
}

let connect ?(timeout_s = 60.) d =
  let give_up = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536; scanned = 0 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x.pid <> d.pid) !live;
        failwith "daemon exited before accepting connections");
      if now_ns () > give_up then failwith "daemon socket never came up";
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd b o n =
  if n > 0 then
    match Unix.write fd b o n with
    | k -> write_all fd b (o + k) (n - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b o n

let send c line =
  write_all c.fd (Bytes.unsafe_of_string line) 0 (String.length line);
  write_all c.fd (Bytes.of_string "\n") 0 1

(* Pops one complete line out of the buffer, if there is one; [scanned]
   remembers how far a previous call searched, so a large response read
   in many chunks is scanned once. *)
let take_line c =
  let n = Buffer.length c.buf in
  let rec find i =
    if i >= n then None else if Buffer.nth c.buf i = '\n' then Some i else find (i + 1)
  in
  match find c.scanned with
  | None ->
    c.scanned <- n;
    None
  | Some i ->
    let line = Buffer.sub c.buf 0 i in
    let rest = Buffer.sub c.buf (i + 1) (n - i - 1) in
    Buffer.clear c.buf;
    Buffer.add_string c.buf rest;
    c.scanned <- 0;
    Some line

(* One read; [false] on end of stream. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.buf c.chunk 0 n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec read_line c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then read_line c else failwith "daemon closed the connection"

let call c line =
  send c line;
  read_line c

let simple_line op =
  J.to_string ~minify:true
    (Serve.Protocol.request_to_json
       { Serve.Protocol.id = None; deadline_ms = None; jobs = None; trace = false; op })

let ping_line = simple_line Serve.Protocol.Ping
let metrics_line = simple_line Serve.Protocol.Metrics
let shutdown_line = simple_line Serve.Protocol.Shutdown

let expect_ok what line =
  match J.parse line with
  | Ok j when String.equal (Serve.Protocol.status_of_response j) "ok" -> j
  | Ok _ | Error _ -> failwith (what ^ " failed: " ^ line)

(* Spawn and time until the first ping is answered — journal replay
   happens before the daemon binds its socket, so it is inside. *)
let start ~exe ~dir ~store =
  let t0 = now_ns () in
  let d = spawn ~exe ~dir ~store in
  let c = connect d in
  ignore (expect_ok "ping" (call c ping_line));
  let setup_ns = now_ns () - t0 in
  (d, c, setup_ns)

let stop d c =
  ignore (expect_ok "shutdown" (call c shutdown_line));
  close c;
  match reap d with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not exit cleanly"

(* -- /proc accounting -------------------------------------------------- *)

let read_proc path = In_channel.with_open_bin path In_channel.input_all

(* USER_HZ, the unit of /proc/<pid>/stat times: 100 on Linux *)
let clock_ticks_per_s = 100.

(* utime + stime of the daemon in ms: fields 14 and 15 of stat.  The
   command name (field 2) may hold spaces, so fields are counted from
   the state (field 3), just after its closing parenthesis. *)
let cpu_ms d =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" d.pid) in
  let from = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
  let ticks = float_of_string f.(11) +. float_of_string f.(12) in
  ticks *. 1000. /. clock_ticks_per_s

let peak_rss_mb d =
  let s = read_proc (Printf.sprintf "/proc/%d/status" d.pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
  in
  float_of_int kb /. 1024.

(* -- the closed loop ---------------------------------------------------- *)

type sent = {
  request : Workload.request;
  latency_ns : int;
  response : string;
}

type loop_result = {
  sent : sent list;  (** in send order *)
  unanswered : int;  (** requests left without a response (0 or 1) *)
  pings : int list;  (** round trips, ns *)
  wall_ns : int;  (** first send to last response *)
}

(* The probe pings on a fixed 10 ms schedule, open loop, at every tick
   at which a work request is in flight: each ping samples how long a
   control request arriving at an arbitrary moment waits behind work.
   Round trips run from the actual send.  At most [max_pings_out] are
   outstanding — half the daemon's queue limit — so the probe alone
   never gets shed. *)
let ping_interval_ns = 10_000_000
let max_pings_out = 32
let response_timeout_ns = 120_000_000_000

(* Sends the stream's requests one at a time for [seconds] (or exactly
   [count] requests) while the probe pings.  [at] runs its callback
   once, when the given number of responses has arrived.  The next request is
   generated while the current one is in flight, so the client never
   holds the daemon idle to build a line.

   It is sent only once the pings outstanding at the response are
   answered.  The daemon reads ready sockets between requests, newest
   connection last, so a pending ping is admitted behind a work line
   that arrived in the same instant: whether a ping waits for one
   request or two would be a race between the client and the daemon's
   event loop, and [control_*] would flip between runs.  This way a
   ping measures the wait behind the request in flight when it was
   sent. *)
let run ?count ?(at = (0, ignore)) ~seconds ~next ~work ~probe () =
  let pending = ref (next ()) in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let more n =
    match count with Some c -> n < c | None -> now_ns () < deadline
  in
  let sent = ref [] and pings = ref [] and n = ref 0 in
  let in_flight = ref None and outstanding = Queue.create () in
  let next_tick = ref (t_start + ping_interval_ns) and last_done = ref t_start in
  let unanswered = ref 0 and answered = ref false and responses = ref 0 in
  let send_work () =
    let r = !pending in
    let t = now_ns () in
    send work r.Workload.line;
    in_flight := Some (r, t);
    incr n;
    if more !n then pending := next ()
  in
  if more 0 then send_work ();
  let quiet_since = ref (now_ns ()) in
  let busy () = Option.is_some !in_flight || not (Queue.is_empty outstanding) in
  while busy () || !answered do
    if !answered && Queue.is_empty outstanding then begin
      answered := false;
      if more !n then send_work ()
    end;
    if busy () then begin
      let now = now_ns () in
      if now >= !next_tick then begin
        if Option.is_some !in_flight && Queue.length outstanding < max_pings_out
        then begin
          send probe ping_line;
          Queue.push now outstanding
        end;
        (* ticks missed while the client was busy are skipped, not bunched *)
        next_tick := !next_tick + (ping_interval_ns * (1 + ((now - !next_tick) / ping_interval_ns)))
      end;
      let timeout =
        if Option.is_some !in_flight then
          Float.max 0. (float_of_int (!next_tick - now_ns ()) /. 1e9)
        else 0.5
      in
      let readable =
        match Unix.select [ work.fd; probe.fd ] [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      if readable = [] && now_ns () - !quiet_since > response_timeout_ns then begin
        (* the daemon stopped answering: give up on what is in flight *)
        if Option.is_some !in_flight then incr unanswered;
        in_flight := None;
        Queue.clear outstanding
      end;
      if List.mem probe.fd readable then begin
        quiet_since := now_ns ();
        if not (fill probe) then failwith "probe connection closed";
        let rec answers () =
          match take_line probe with
          | None -> ()
          | Some _ ->
            pings := (now_ns () - Queue.pop outstanding) :: !pings;
            answers ()
        in
        answers ()
      end;
      if List.mem work.fd readable then begin
        quiet_since := now_ns ();
        if not (fill work) then failwith "work connection closed";
        match take_line work with
        | None -> ()
        | Some response ->
          let t = now_ns () in
          (match !in_flight with
          | Some (request, t0) ->
            sent := { request = { request with line = "" }; latency_ns = t - t0; response } :: !sent
          | None -> ());
          in_flight := None;
          last_done := t;
          answered := true;
          incr responses;
          if !responses = fst at then snd at ()
      end
    end
  done;
  {
    sent = List.rev !sent;
    unanswered = !unanswered;
    pings = List.rev !pings;
    wall_ns = !last_done - t_start;
  }
