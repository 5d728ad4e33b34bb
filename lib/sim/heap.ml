type 'a entry = { time : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let is_empty h = h.size = 0
let size h = h.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h entry =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let data = Array.make ncap entry in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let push ~time value h =
  let entry = { time; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  (* sift up *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before h.data.(i) h.data.(parent) then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        up parent
      end
    end
  in
  up (h.size - 1)

let pop_min h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      let rec down i =
        let left = (2 * i) + 1 and right = (2 * i) + 2 in
        let smallest =
          if left < h.size && before h.data.(left) h.data.(i) then left else i
        in
        let smallest =
          if right < h.size && before h.data.(right) h.data.(smallest) then
            right
          else smallest
        in
        if smallest <> i then begin
          let tmp = h.data.(i) in
          h.data.(i) <- h.data.(smallest);
          h.data.(smallest) <- tmp;
          down smallest
        end
      in
      down 0
    end;
    Some (top.time, top.value)
  end

let peek_time h = if h.size = 0 then None else Some h.data.(0).time

(* Specialization for int-coded payloads: entries live in one flat int
   array (time, seq, value per slot), so pushing an event allocates
   nothing once the array has grown to the run's high-water mark.  The
   compiled engine's event loop uses this; ordering is identical to the
   generic heap ((time, seq) with FIFO tie-break). *)
module Int_heap = struct
  type t = {
    mutable data : int array;  (** stride 3: time, seq, value *)
    mutable size : int;  (** entries, not array slots *)
    mutable next_seq : int;
  }

  let create () = { data = [||]; size = 0; next_seq = 0 }
  let is_empty h = h.size = 0
  let size h = h.size

  let before d i j =
    let ti = d.(3 * i) and tj = d.(3 * j) in
    ti < tj || (ti = tj && d.((3 * i) + 1) < d.((3 * j) + 1))

  let swap d i j =
    for k = 0 to 2 do
      let tmp = d.((3 * i) + k) in
      d.((3 * i) + k) <- d.((3 * j) + k);
      d.((3 * j) + k) <- tmp
    done

  let push ~time value h =
    let cap = Array.length h.data / 3 in
    if h.size = cap then begin
      let data = Array.make (3 * max 16 (2 * cap)) 0 in
      Array.blit h.data 0 data 0 (3 * h.size);
      h.data <- data
    end;
    let d = h.data in
    let i = h.size in
    d.(3 * i) <- time;
    d.((3 * i) + 1) <- h.next_seq;
    d.((3 * i) + 2) <- value;
    h.next_seq <- h.next_seq + 1;
    h.size <- h.size + 1;
    let rec up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if before d i parent then begin
          swap d i parent;
          up parent
        end
      end
    in
    up i

  let min_time h = h.data.(0)
  let min_value h = h.data.(2)

  let copy h =
    { data = Array.copy h.data; size = h.size; next_seq = h.next_seq }

  let drop_min h =
    let d = h.data in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      swap d 0 h.size;
      let rec down i =
        let left = (2 * i) + 1 and right = (2 * i) + 2 in
        let smallest =
          if left < h.size && before d left i then left else i
        in
        let smallest =
          if right < h.size && before d right smallest then right
          else smallest
        in
        if smallest <> i then begin
          swap d i smallest;
          down smallest
        end
      in
      down 0
    end
end
