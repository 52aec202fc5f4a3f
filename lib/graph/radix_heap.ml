(* Bucket b holds entries whose priority differs from [last] (the floor:
   the minimum priority ever extracted) first at bit [b - 1]; bucket 0
   holds entries equal to the floor. Extracting a new minimum moves the
   floor up and redistributes one bucket, each entry falling to a strictly
   lower bucket — giving the amortised O(log C) bound of AMOT'90.

   Each bucket is a stack of (priority, payload) pairs stored flat in
   [data.(b)] (slots 2i and 2i + 1, [len.(b)] pairs in use), so inserts
   and extractions allocate nothing once the buffers have grown. The top
   of a stack is its most recent push, and redistribution pushes a
   bucket's entries from the top down, so equal priorities leave in the
   order of the list-of-entries formulation (last in, first out). *)

type t = {
  data : int array array; (* 0 .. 63 *)
  len : int array;
  mutable last : int;
  mutable count : int;
}

let bucket_count = 64

let create () =
  {
    data = Array.make bucket_count [||];
    len = Array.make bucket_count 0;
    last = 0;
    count = 0;
  }

let size t = t.count
let is_empty t = t.count = 0
let floor t = t.last

(* Index of the highest set bit, for x > 0, by halving the range: six
   tests, where a shift loop costs one step per bit and showed up as a
   quarter of a Dijkstra search's time. *)
let msb x =
  let x = ref x and n = ref 0 in
  if !x lsr 32 <> 0 then begin x := !x lsr 32; n := 32 end;
  if !x lsr 16 <> 0 then begin x := !x lsr 16; n := !n + 16 end;
  if !x lsr 8 <> 0 then begin x := !x lsr 8; n := !n + 8 end;
  if !x lsr 4 <> 0 then begin x := !x lsr 4; n := !n + 4 end;
  if !x lsr 2 <> 0 then begin x := !x lsr 2; n := !n + 2 end;
  if !x lsr 1 <> 0 then incr n;
  !n

let bucket_of t priority =
  if priority = t.last then 0 else 1 + msb (priority lxor t.last)

let push t b priority payload =
  let n = t.len.(b) in
  let d = t.data.(b) in
  let d =
    if 2 * n < Array.length d then d
    else begin
      let grown = Array.make (max 16 (2 * Array.length d)) 0 in
      Array.blit d 0 grown 0 (2 * n);
      t.data.(b) <- grown;
      grown
    end
  in
  d.(2 * n) <- priority;
  d.((2 * n) + 1) <- payload;
  t.len.(b) <- n + 1

let insert t ~priority ~payload =
  if priority < 0 then invalid_arg "Radix_heap.insert: negative priority";
  if priority < t.last then
    invalid_arg "Radix_heap.insert: priority below the floor (monotonicity)";
  push t (bucket_of t priority) priority payload;
  t.count <- t.count + 1

(* Bring the minimum into bucket 0. *)
let pull_min t =
  if t.len.(0) = 0 then begin
    (* New floor = min priority in the first non-empty bucket b;
       redistribute it. Every entry lands below b, so [d] stays intact
       while it is read. *)
    let rec first_nonempty b =
      if t.len.(b) > 0 then b else first_nonempty (b + 1)
    in
    let b = first_nonempty 1 in
    let d = t.data.(b) and n = t.len.(b) in
    t.len.(b) <- 0;
    let min_p = ref max_int in
    for i = 0 to n - 1 do
      if d.(2 * i) < !min_p then min_p := d.(2 * i)
    done;
    t.last <- !min_p;
    for i = n - 1 downto 0 do
      let p = d.(2 * i) in
      push t (bucket_of t p) p d.((2 * i) + 1)
    done
  end

let extract_min t =
  if t.count = 0 then raise Not_found;
  pull_min t;
  let n = t.len.(0) - 1 in
  t.len.(0) <- n;
  t.count <- t.count - 1;
  t.data.(0).((2 * n) + 1)

let min_priority t =
  if t.count = 0 then raise Not_found;
  pull_min t;
  t.last

(* Compacting each bucket in place keeps the survivors' order, so equal
   priorities still leave last in, first out. *)
let filter t keep =
  for b = 0 to bucket_count - 1 do
    let d = t.data.(b) and n = t.len.(b) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = d.(2 * i) and v = d.((2 * i) + 1) in
      if keep p v then begin
        d.(2 * !k) <- p;
        d.((2 * !k) + 1) <- v;
        incr k
      end
    done;
    t.count <- t.count - (n - !k);
    t.len.(b) <- !k
  done

let clear t =
  Array.fill t.len 0 bucket_count 0;
  t.last <- 0;
  t.count <- 0
