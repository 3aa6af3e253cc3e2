(** Copy-on-write symbolic memory.

    The paper's central implementation trick (section 5) is a machine-state
    representation shared between the concrete and symbolic domains, with
    aggressive copy-on-write so forked paths stay cheap.  We realise it as
    an immutable concrete base image (shared by every path) plus a
    persistent map overlay of symbolic (or concretely updated) bytes, kept
    in aligned 8-byte chunks.  Forking a state shares both structurally; a
    write copies one chunk and O(log n) map nodes.

    Reads from a {e symbolic pointer} are lowered to an if-then-else chain
    over one solver page, whose size is configurable — this directly
    reproduces the paper's page-splitting optimization and its section 6.2
    page-size experiment. *)

open S2e_expr
module Int_map = Map.Make (Int)

(* The overlay maps the index of each aligned [chunk_bytes]-byte span
   that holds a written byte to a chunk: an immutable array of its bytes
   in which a slot holding [empty] reads through to the base image.  A
   store copies one chunk and makes one map insert; an aligned load makes
   one lookup.  A chunk is never mutated once it is in a map. *)
let chunk_bits = 3
let chunk_bytes = 1 lsl chunk_bits
let slot_mask = chunk_bytes - 1

(* Stored bytes are width 8, so this width-1 constant is never one of
   them; slots are compared to it physically, before any match. *)
let empty = Expr.bool_f
let no_chunk = Array.make chunk_bytes empty

type t = {
  base : Bytes.t; (* immutable after construction; shared by all states *)
  overlay : Expr.t array Int_map.t;
  count : int; (* non-empty slots of [overlay], kept so reading it is O(1) *)
  size : int;
}

exception Fault of string

let create ~base =
  { base; overlay = Int_map.empty; count = 0; size = Bytes.length base }

let fault fmt = Fmt.kstr (fun m -> raise (Fault m)) fmt

let check t addr =
  if addr < 0 || addr >= t.size then fault "memory access out of range: 0x%x" addr

(** Number of overlay bytes: a proxy for per-state memory footprint,
    reported by the Fig. 8 benchmark. *)
let overlay_size t = t.count

let base t = t.base

let chunk overlay i =
  match Int_map.find i overlay with c -> c | exception Not_found -> no_chunk

(** Fold over overlay bytes in increasing address order (serialization). *)
let fold_overlay f t acc =
  Int_map.fold
    (fun i c acc ->
      let rec go k acc =
        if k = chunk_bytes then acc
        else
          let e = Array.unsafe_get c k in
          go (k + 1)
            (if e == empty then acc else f ((i lsl chunk_bits) + k) e acc)
      in
      go 0 acc)
    t.overlay acc

(** Rewrite every overlay byte in increasing address order (e.g.
    re-interning a state adopted from another domain).  The base image is
    untouched. *)
let map_overlay f t =
  {
    t with
    overlay =
      Int_map.map (Array.map (fun e -> if e == empty then e else f e)) t.overlay;
  }

(** Rebuild a memory from a base image and a decoded overlay list; a later
    entry for an address replaces an earlier one. *)
let of_overlay ~base entries =
  (* Every chunk here is fresh, so it is filled in place: entries come in
     address order from [fold_overlay], and each chunk enters the map once
     its last byte is in; an entry returning to a chunk refills it. *)
  let overlay = ref Int_map.empty and count = ref 0 in
  let cur = ref (-1) and c = ref no_chunk in
  let flush () = if !cur >= 0 then overlay := Int_map.add !cur !c !overlay in
  List.iter
    (fun (a, e) ->
      let i = a lsr chunk_bits and k = a land slot_mask in
      if i <> !cur then begin
        flush ();
        cur := i;
        c :=
          match Int_map.find i !overlay with
          | c -> c
          | exception Not_found -> Array.make chunk_bytes empty
      end;
      if Array.unsafe_get !c k == empty then incr count;
      Array.unsafe_set !c k e)
    entries;
  flush ();
  { base; overlay = !overlay; count = !count; size = Bytes.length base }

let base_byte t addr =
  Expr.const ~width:8 (Int64.of_int (Char.code (Bytes.unsafe_get t.base addr)))

let read_byte t addr =
  check t addr;
  let e =
    Array.unsafe_get (chunk t.overlay (addr lsr chunk_bits)) (addr land slot_mask)
  in
  if e == empty then base_byte t addr else e

let write_byte t addr v =
  check t addr;
  assert (Expr.width v = 8);
  let i = addr lsr chunk_bits and k = addr land slot_mask in
  let c = chunk t.overlay i in
  let old = Array.unsafe_get c k in
  if old == v then t
  else
    let c = Array.copy c in
    Array.unsafe_set c k v;
    {
      t with
      overlay = Int_map.add i c t.overlay;
      count = (if old == empty then t.count + 1 else t.count);
    }

(* The 4 bytes at [addr] start at slot [k] of chunk [lo] and run on into
   chunk [hi] when they cross its end. *)
let word_slot lo hi k j =
  let s = k + j in
  if s < chunk_bytes then Array.unsafe_get lo s
  else Array.unsafe_get hi (s - chunk_bytes)

(* The little-endian value of the 4 bytes, or -1 when one of them is
   symbolic. *)
let rec concrete_bytes t lo hi addr k j acc =
  if j < 0 then acc
  else
    let e = word_slot lo hi k j in
    let b =
      if e == empty then Char.code (Bytes.unsafe_get t.base (addr + j))
      else match e with Expr.Const { value; _ } -> Int64.to_int value | _ -> -1
    in
    if b < 0 then -1 else concrete_bytes t lo hi addr k (j - 1) ((acc lsl 8) lor b)

let read_word t addr =
  check t addr;
  check t (addr + 3);
  let i = addr lsr chunk_bits and k = addr land slot_mask in
  let lo = chunk t.overlay i in
  let hi = if k <= chunk_bytes - 4 then lo else chunk t.overlay (i + 1) in
  let v = concrete_bytes t lo hi addr k 3 0 in
  (* Concrete bytes fold to this very constant through [Expr.concat]. *)
  if v >= 0 then Expr.const (Int64.of_int v)
  else
    let byte j =
      let e = word_slot lo hi k j in
      if e == empty then base_byte t (addr + j) else e
    in
    let b0 = byte 0 and b1 = byte 1 and b2 = byte 2 and b3 = byte 3 in
    Expr.concat
      ~high:(Expr.concat ~high:b3 ~low:b2)
      ~low:(Expr.concat ~high:b1 ~low:b0)

let write_word t addr v =
  check t addr;
  check t (addr + 3);
  assert (Expr.width v = 32);
  let byte i = Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) v in
  let k = addr land slot_mask in
  if k > chunk_bytes - 4 then
    let t = write_byte t addr (byte 0) in
    let t = write_byte t (addr + 1) (byte 1) in
    let t = write_byte t (addr + 2) (byte 2) in
    write_byte t (addr + 3) (byte 3)
  else
    let b0 = byte 0 in
    let b1 = byte 1 in
    let b2 = byte 2 in
    let b3 = byte 3 in
    let i = addr lsr chunk_bits in
    let c = chunk t.overlay i in
    let g = Array.unsafe_get c in
    if g k == b0 && g (k + 1) == b1 && g (k + 2) == b2 && g (k + 3) == b3 then t
    else
      let fresh j = if g (k + j) == empty then 1 else 0 in
      let count = t.count + fresh 0 + fresh 1 + fresh 2 + fresh 3 in
      let c = Array.copy c in
      Array.unsafe_set c k b0;
      Array.unsafe_set c (k + 1) b1;
      Array.unsafe_set c (k + 2) b2;
      Array.unsafe_set c (k + 3) b3;
      { t with overlay = Int_map.add i c t.overlay; count }

(** Fully concrete view of a byte (for device DMA, tracing, etc.):
    [None] when the byte is symbolic. *)
let concrete_byte t addr =
  match Expr.to_const (read_byte t addr) with
  | Some v -> Some (Int64.to_int v)
  | None -> None

(** Read a symbolic-pointer byte: builds an ITE chain over the solver page
    containing [anchor] (a concrete value the address can take), and returns
    it together with the page-bounds constraint that must be added to the
    path. *)
let read_byte_sym t ~page_size ~anchor addr_expr =
  let page = anchor / page_size * page_size in
  let page_end = min t.size (page + page_size) in
  let in_page =
    Expr.log_and
      (Expr.ule (Expr.const (Int64.of_int page)) addr_expr)
      (Expr.ult addr_expr (Expr.const (Int64.of_int page_end)))
  in
  (* Fold from the anchor's byte as default so the chain is never empty. *)
  let result = ref (read_byte t anchor) in
  for a = page_end - 1 downto page do
    if a <> anchor then
      result :=
        Expr.ite
          (Expr.eq addr_expr (Expr.const (Int64.of_int a)))
          (read_byte t a) !result
  done;
  (!result, in_page)

let read_word_sym t ~page_size ~anchor addr_expr =
  let byte i =
    let e, _ =
      read_byte_sym t ~page_size ~anchor:(anchor + i)
        (Expr.add addr_expr (Expr.const (Int64.of_int i)))
    in
    e
  in
  let page = anchor / page_size * page_size in
  let page_end = min t.size (page + page_size) in
  let in_page =
    Expr.log_and
      (Expr.ule (Expr.const (Int64.of_int page)) addr_expr)
      (Expr.ult
         (Expr.add addr_expr (Expr.const 3L))
         (Expr.const (Int64.of_int page_end)))
  in
  let w =
    Expr.concat
      ~high:(Expr.concat ~high:(byte 3) ~low:(byte 2))
      ~low:(Expr.concat ~high:(byte 1) ~low:(byte 0))
  in
  (w, in_page)

(** Copy a concrete buffer into memory (DMA, image patching). *)
let blit_concrete t addr data =
  Array.to_seq data
  |> Seq.fold_lefti
       (fun t i b ->
         write_byte t (addr + i) (Expr.const ~width:8 (Int64.of_int (b land 0xff))))
       t

(** Read a NUL-terminated concrete string (fails on symbolic bytes). *)
let read_cstring ?(max_len = 256) t addr =
  let buf = Buffer.create 16 in
  let rec go a n =
    if n >= max_len then Buffer.contents buf
    else
      match concrete_byte t a with
      | Some 0 | None -> Buffer.contents buf
      | Some c ->
          Buffer.add_char buf (Char.chr c);
          go (a + 1) (n + 1)
  in
  go addr 0
