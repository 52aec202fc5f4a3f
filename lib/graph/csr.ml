type t = {
  vertex_count : int;
  offsets : int array;
  targets : Ivec.t;
  edge_rows : Ivec.t;
}

type timings = {
  total : float;
  count_phase : float;
  prefix_phase : float;
  scatter_phase : float;
}

(* Wall clock, not CPU time: phase times must be comparable with the
   executor's operator timings in EXPLAIN ANALYZE (and with the other
   build phases measured in Runtime.build_multi). *)
let now = Unix.gettimeofday

(* Above this many edges the slot arrays pack two 30-bit payloads per
   word (Ivec) — at the SF100-class sizes the stress tier generates,
   plain int arrays for targets + edge_rows (+ the reverse CSR) would
   cost several GB. Below it the packed read's extra shift/mask isn't
   worth paying on hot BFS loops. *)
let auto_compact_threshold = 4_000_000

let compacted t = Ivec.is_packed t.targets
let edge_count t = Ivec.length t.targets

let memory_words t =
  Array.length t.offsets + Ivec.memory_words t.targets
  + Ivec.memory_words t.edge_rows

(* Decide the representation: an explicit [~compact] wins; otherwise
   pack iff the graph is big enough and every payload fits. *)
let seal ?compact ~targets ~edge_rows () =
  let want =
    match compact with
    | Some b -> b
    | None -> Array.length targets >= auto_compact_threshold
  in
  if want && Ivec.packable targets && Ivec.packable edge_rows then
    (Ivec.pack targets, Ivec.pack edge_rows)
  else (Ivec.of_array targets, Ivec.of_array edge_rows)

let build_timed_repr ?compact ~vertex_count ~src ~dst () =
  if Array.length src <> Array.length dst then
    invalid_arg "Csr.build: src/dst length mismatch";
  let t0 = now () in
  let n = Array.length src in
  (* counting pass: out-degree per vertex, ignoring dropped slots *)
  let counts = Array.make (vertex_count + 1) 0 in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    if s >= 0 && dst.(i) >= 0 then begin
      counts.(s + 1) <- counts.(s + 1) + 1;
      incr kept
    end
  done;
  let t1 = now () in
  (* prefix sum -> offsets *)
  for v = 1 to vertex_count do
    counts.(v) <- counts.(v) + counts.(v - 1)
  done;
  let offsets = counts in
  let t2 = now () in
  (* scatter pass using a moving cursor per vertex *)
  let cursor = Array.copy offsets in
  let targets = Array.make !kept 0 in
  let edge_rows = Array.make !kept 0 in
  for i = 0 to n - 1 do
    let s = src.(i) in
    if s >= 0 && dst.(i) >= 0 then begin
      let slot = cursor.(s) in
      targets.(slot) <- dst.(i);
      edge_rows.(slot) <- i;
      cursor.(s) <- slot + 1
    end
  done;
  let targets, edge_rows = seal ?compact ~targets ~edge_rows () in
  let t3 = now () in
  ( { vertex_count; offsets; targets; edge_rows },
    {
      total = t3 -. t0;
      count_phase = t1 -. t0;
      prefix_phase = t2 -. t1;
      scatter_phase = t3 -. t2;
    } )

let build_timed ~vertex_count ~src ~dst =
  build_timed_repr ~vertex_count ~src ~dst ()

let build ~vertex_count ~src ~dst = fst (build_timed ~vertex_count ~src ~dst)

let build_repr ~compact ~vertex_count ~src ~dst =
  fst (build_timed_repr ~compact ~vertex_count ~src ~dst ())

(* Copy [len] payloads of an Ivec into a plain array. *)
let blit_ivec src pos dst dst_pos len =
  match Ivec.words src with
  | Some a -> Array.blit a pos dst dst_pos len
  | None ->
    for k = 0 to len - 1 do
      dst.(dst_pos + k) <- Ivec.get src (pos + k)
    done

(* Rows appended to the edge table have the largest row numbers, so a
   fresh build's counting sort puts each of them at the end of its
   source's segment, after every old slot of that source. The merge does
   exactly that: the old slots of vertex [v] move up by the number of new
   slots of the vertices below [v] ([added.(v)] after the prefix sum),
   then the new slots are scattered in row order. A run of vertices with
   the same shift is one blit, and there is at most one run more than
   there are new slots, so besides the O(V) offset pass the old slots
   cost one memory copy. *)
let extend ?compact t ~src ~dst ~first_row =
  if Array.length src <> Array.length dst then
    invalid_arg "Csr.extend: src/dst length mismatch";
  let n = t.vertex_count in
  let added = Array.make (n + 1) 0 in
  Array.iteri
    (fun i s -> if s >= 0 && dst.(i) >= 0 then added.(s + 1) <- added.(s + 1) + 1)
    src;
  for v = 1 to n do
    added.(v) <- added.(v) + added.(v - 1)
  done;
  let e = edge_count t + added.(n) in
  let offsets = Array.init (n + 1) (fun v -> t.offsets.(v) + added.(v)) in
  let targets = Array.make e 0 and edge_rows = Array.make e 0 in
  let v = ref 0 in
  while !v < n do
    let shift = added.(!v) in
    let w = ref (!v + 1) in
    while !w < n && added.(!w) = shift do
      incr w
    done;
    let first = t.offsets.(!v) in
    let len = t.offsets.(!w) - first in
    blit_ivec t.targets first targets (first + shift) len;
    blit_ivec t.edge_rows first edge_rows (first + shift) len;
    v := !w
  done;
  (* the new slots of [v] start after its old ones *)
  let cursor = Array.init n (fun v -> t.offsets.(v + 1) + added.(v)) in
  Array.iteri
    (fun i s ->
      let d = dst.(i) in
      if s >= 0 && d >= 0 then begin
        let slot = cursor.(s) in
        targets.(slot) <- d;
        edge_rows.(slot) <- first_row + i;
        cursor.(s) <- slot + 1
      end)
    src;
  let targets, edge_rows = seal ?compact ~targets ~edge_rows () in
  { vertex_count = n; offsets; targets; edge_rows }

(* Reverse adjacency by the same count/prefix/scatter passes, run over the
   forward CSR's slots instead of the raw edge list. The payload of a
   reverse slot is the *forward slot* it mirrors (not the edge-table row):
   bottom-up traversal steps can then record parent slots that index the
   forward CSR, keeping Path_tree oblivious to the direction a vertex was
   discovered from. Scattering in ascending forward-slot order also leaves
   every vertex's in-edge list sorted by forward slot, which is what makes
   the bottom-up kernels' first-hit parent the canonical (minimal-slot)
   one. The reverse CSR inherits the forward one's representation. *)
let reverse t =
  let n = t.vertex_count in
  let e = Ivec.length t.targets in
  let counts = Array.make (n + 1) 0 in
  for slot = 0 to e - 1 do
    let d = Ivec.get t.targets slot in
    counts.(d + 1) <- counts.(d + 1) + 1
  done;
  for v = 1 to n do
    counts.(v) <- counts.(v) + counts.(v - 1)
  done;
  let offsets = counts in
  let cursor = Array.copy offsets in
  let rev_targets = Array.make e 0 in
  let rev_slots = Array.make e 0 in
  for v = 0 to n - 1 do
    for slot = t.offsets.(v) to t.offsets.(v + 1) - 1 do
      let d = Ivec.get t.targets slot in
      let k = cursor.(d) in
      rev_targets.(k) <- v;
      rev_slots.(k) <- slot;
      cursor.(d) <- k + 1
    done
  done;
  let targets, edge_rows =
    seal ~compact:(compacted t) ~targets:rev_targets ~edge_rows:rev_slots ()
  in
  { vertex_count = n; offsets; targets; edge_rows }

let out_degree t v =
  if v < 0 || v >= t.vertex_count then
    invalid_arg "Csr.out_degree: vertex out of range";
  t.offsets.(v + 1) - t.offsets.(v)

let iter_out t v f =
  if v < 0 || v >= t.vertex_count then
    invalid_arg "Csr.iter_out: vertex out of range";
  for slot = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f ~slot ~target:(Ivec.get t.targets slot)
  done
