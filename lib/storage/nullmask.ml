(* Append-only, like a column's payload (see Column): [copy] shares
   [bits] with the mask it was copied from, and only the owner writes
   into them, at bits at or above its own length. A bit is written as
   part of its byte, so the owner's append rewrites the low bits of a
   byte a copy may read; it rewrites them with the values they already
   hold. A sharing mask's first append moves it to bits of its own. *)
type t = {
  mutable bits : Bytes.t;
  mutable len : int;
  mutable nulls : int;
  mutable owner : bool;
}

let create ?(capacity = 64) () =
  {
    bits = Bytes.make ((capacity + 7) / 8) '\000';
    len = 0;
    nulls = 0;
    owner = true;
  }

let length t = t.len

let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Nullmask.get: index out of bounds";
  unsafe_get t i

let unsafe_set t i null =
  let byte = i lsr 3 and bit = 1 lsl (i land 7) in
  let old = Char.code (Bytes.unsafe_get t.bits byte) in
  let fresh = if null then old lor bit else old land lnot bit in
  Bytes.unsafe_set t.bits byte (Char.chr fresh)

(* Sized from the length, as Column.grow is. Bits past [len] copied with
   the last byte are overwritten by the appends that reach them. *)
let append t null =
  let need = (t.len + 8) / 8 in
  if (not t.owner) || need > Bytes.length t.bits then begin
    let bits = Bytes.make (2 * need) '\000' in
    Bytes.blit t.bits 0 bits 0 ((t.len + 7) / 8);
    t.bits <- bits;
    t.owner <- true
  end;
  unsafe_set t t.len null;
  if null then t.nulls <- t.nulls + 1;
  t.len <- t.len + 1

let null_count t = t.nulls
let any_null t = t.nulls > 0
let copy t = { t with owner = false }
