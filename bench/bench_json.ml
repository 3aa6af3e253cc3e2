(** Single writer for the machine-readable `BENCH {...}` lines the
    experiments emit — previously each experiment hand-rolled its own
    [Printf], so field quoting and float precision drifted per site and
    nothing marked schema revisions.

    Shared schema: ["name"] first (scrapers grep [^BENCH {"name":"..."]), then
    ["version"] — bump {!schema_version} when a field's meaning changes,
    so downstream scrapers can refuse lines they no longer understand —
    then the experiment's own fields in emission order. *)

let schema_version = 1

type v =
  | Int of int
  | Float of float * int  (** value, printed decimals *)
  | Str of string

let render_value = function
  | Int i -> string_of_int i
  | Float (f, decimals) -> Printf.sprintf "%.*f" decimals f
  | Str s -> Printf.sprintf "%S" s

let json ~name fields =
  let field (k, v) = Printf.sprintf "\"%s\":%s" k (render_value v) in
  Printf.sprintf "{%s}"
    (String.concat ","
       (field ("name", Str name)
       :: field ("version", Int schema_version)
       :: List.map field fields))

(** Print the experiment's [BENCH {...}] line on stdout. *)
let emit ~name fields = Printf.printf "BENCH %s\n" (json ~name fields)
