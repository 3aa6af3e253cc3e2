(* Expected outputs as multisets of line digests, and the diff that turns
   a run's emitted "status | case" lines into failure counts. *)

(* 16 hex digits of the line's MD5: collisions across a few thousand
   lines are out of reach, and the committed files stay small. *)
let key line = String.sub (Digest.to_hex (Digest.string line)) 0 16

type expected = { keys : string list  (** sorted, one per expected line *) }

let of_lines lines = { keys = List.sort compare (List.map key lines) }

(* File format: "#" comment lines, then one key per line in sorted
   order. *)
let to_string ~title e =
  let b = Buffer.create (17 * List.length e.keys + 256) in
  Printf.bprintf b "# %s: %d lines, 16-hex MD5 prefix of each \"status | case\" line\n"
    title (List.length e.keys);
  List.iter (fun k -> Printf.bprintf b "%s\n" k) e.keys;
  Buffer.contents b

let of_string text =
  {
    keys =
      List.sort compare
        (List.filter
           (fun line -> line <> "" && line.[0] <> '#')
           (String.split_on_char '\n' text));
  }

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

type diff = {
  matched : int;  (** emitted lines found in the expected multiset *)
  missing : int;  (** expected lines no emitted line matched *)
  foreign : int;  (** emitted lines beyond the expected multiset *)
}

let diff (e : expected) lines =
  let rec go m mi fo exp got =
    match (exp, got) with
    | [], rest -> (m, mi, fo + List.length rest)
    | rest, [] -> (m, mi + List.length rest, fo)
    | x :: xs, y :: ys ->
        let c = compare x y in
        if c = 0 then go (m + 1) mi fo xs ys
        else if c < 0 then go m (mi + 1) fo xs got
        else go m mi (fo + 1) exp ys
  in
  let matched, missing, foreign =
    go 0 0 0 e.keys (List.sort compare (List.map key lines))
  in
  { matched; missing; foreign }
