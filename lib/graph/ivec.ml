(* Compact int vector for the CSR's per-slot payloads (targets and
   edge rows).

   A plain [int array] spends 8 bytes per element on a 64-bit runtime;
   at SF100-class sizes (tens of millions of edges, four slot arrays
   counting the reverse CSR) that is multiple GB of resident adjacency.
   Values stored here are vertex ids and edge-table rows — non-negative
   and far below 2^31 for any graph that fits in memory — so two of
   them pack into one 63-bit OCaml word (31 bits each), halving the
   footprint without leaving the unboxed-int world.

   Bigarray int32 was rejected: reading an [int32] allocates a box on
   every access without flambda, which would dominate the BFS inner
   loops. The packed read is a shift and a mask on an immediate int —
   no allocation, and the per-access bounds check the plain-array code
   paid is traded for the representation branch via [Array.unsafe_get]
   (every caller indexes within [0, length), exactly as the CSR slot
   arithmetic already guaranteed). *)

type t =
  | Words of int array
  | Packed of { len : int; words : int array }

let max_packed = 0x3FFF_FFFF (* 30-bit payload: 2 per 63-bit word, sign-safe *)

let of_array a = Words a

let packable a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    if v < 0 || v > max_packed then ok := false
  done;
  !ok

let pack a =
  let n = Array.length a in
  let words = Array.make ((n + 1) / 2) 0 in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get a i in
    if v < 0 || v > max_packed then
      invalid_arg "Ivec.pack: value outside the 30-bit payload range";
    let w = i lsr 1 in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (v lsl ((i land 1) * 30)))
  done;
  Packed { len = n; words }

let length = function Words a -> Array.length a | Packed p -> p.len
let is_packed = function Words _ -> false | Packed _ -> true

let memory_words = function
  | Words a -> Array.length a
  | Packed p -> Array.length p.words

let[@inline] get t i =
  match t with
  | Words a -> Array.unsafe_get a i
  | Packed p ->
    (Array.unsafe_get p.words (i lsr 1) lsr ((i land 1) * 30)) land max_packed

let words = function Words a -> Some a | Packed _ -> None
