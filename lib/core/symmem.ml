(** Copy-on-write symbolic memory.

    The paper's central implementation trick (section 5) is a machine-state
    representation shared between the concrete and symbolic domains, with
    aggressive copy-on-write so forked paths stay cheap.  We realise it as
    an immutable concrete base image (shared by every path) plus a
    persistent map overlay of symbolic (or concretely updated) bytes.
    Forking a state shares both structurally; writes copy O(log n) nodes.

    Reads from a {e symbolic pointer} are lowered to an if-then-else chain
    over one solver page, whose size is configurable — this directly
    reproduces the paper's page-splitting optimization and its section 6.2
    page-size experiment. *)

open S2e_expr
module Int_map = Map.Make (Int)

type t = {
  base : Bytes.t; (* immutable after construction; shared by all states *)
  overlay : Expr.t Int_map.t;
  count : int; (* Int_map.cardinal overlay, kept so reading it is O(1) *)
  size : int;
}

exception Fault of string

let create ~base =
  { base; overlay = Int_map.empty; count = 0; size = Bytes.length base }

let fault fmt = Fmt.kstr (fun m -> raise (Fault m)) fmt

let check t addr =
  if addr < 0 || addr >= t.size then fault "memory access out of range: 0x%x" addr

(** Number of overlay entries: a proxy for per-state memory footprint,
    reported by the Fig. 8 benchmark. *)
let overlay_size t = t.count

let base t = t.base

(** Fold over overlay entries in increasing address order (serialization). *)
let fold_overlay f t acc = Int_map.fold f t.overlay acc

(** Rewrite every overlay expression (e.g. re-interning a state adopted
    from another domain).  The base image is untouched. *)
let map_overlay f t = { t with overlay = Int_map.map f t.overlay }

(** Rebuild a memory from a base image and a decoded overlay list. *)
let of_overlay ~base entries =
  let overlay =
    List.fold_left (fun m (a, e) -> Int_map.add a e m) Int_map.empty entries
  in
  { base; overlay; count = Int_map.cardinal overlay; size = Bytes.length base }

let read_byte t addr =
  check t addr;
  match Int_map.find addr t.overlay with
  | e -> e
  | exception Not_found ->
      Expr.const ~width:8 (Int64.of_int (Char.code (Bytes.get t.base addr)))

let write_byte t addr v =
  check t addr;
  assert (Expr.width v = 8);
  let count = if Int_map.mem addr t.overlay then t.count else t.count + 1 in
  let overlay = Int_map.add addr v t.overlay in
  (* [Int_map.add] returns the map itself when the byte already holds [v]. *)
  if overlay == t.overlay then t else { t with overlay; count }

(* The little-endian value of the 4 bytes at [addr], or -1 when one of
   them is symbolic. *)
let rec concrete_bytes t addr i acc =
  if i < 0 then acc
  else
    let b =
      match Int_map.find (addr + i) t.overlay with
      | Expr.Const { value; _ } -> Int64.to_int value
      | _ -> -1
      | exception Not_found -> Char.code (Bytes.unsafe_get t.base (addr + i))
    in
    if b < 0 then -1 else concrete_bytes t addr (i - 1) ((acc lsl 8) lor b)

let read_word t addr =
  check t addr;
  check t (addr + 3);
  let v = concrete_bytes t addr 3 0 in
  (* Concrete bytes fold to this very constant through [Expr.concat]. *)
  if v >= 0 then Expr.const (Int64.of_int v)
  else
    let b0 = read_byte t addr
    and b1 = read_byte t (addr + 1)
    and b2 = read_byte t (addr + 2)
    and b3 = read_byte t (addr + 3) in
    Expr.concat
      ~high:(Expr.concat ~high:b3 ~low:b2)
      ~low:(Expr.concat ~high:b1 ~low:b0)

let write_word t addr v =
  check t addr;
  check t (addr + 3);
  assert (Expr.width v = 32);
  let byte i = Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) v in
  let t = write_byte t addr (byte 0) in
  let t = write_byte t (addr + 1) (byte 1) in
  let t = write_byte t (addr + 2) (byte 2) in
  write_byte t (addr + 3) (byte 3)

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
