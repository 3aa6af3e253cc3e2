(** Merge policy: when is an ite-join predicted profitable?

    Merging trades path count against expression size: the joined state
    carries every differing cell as an ite whose guards ride into each
    later solver query, while enumeration pays the solver for both
    suffixes separately.  The [Auto] gate must also keep a determinism
    contract — the differential suite compares jobs=1 against jobs=4
    path sets — so the {e decision} is purely structural: predicted ite
    blow-up (from the hash-cons O(1) node counts, computed in
    {!Join.attempt}) against a fixed node budget.  Nothing
    timing-dependent feeds the decision. *)

type mode = Off | Auto | Always

let mode_names = [ "off"; "auto"; "always" ]

let mode_of_string = function
  | "off" -> Ok Off
  | "auto" -> Ok Auto
  | "always" -> Ok Always
  | s ->
      Error
        (Printf.sprintf "unknown merge mode %S (valid: %s)" s
           (String.concat ", " mode_names))

let mode_to_string = function Off -> "off" | Auto -> "auto" | Always -> "always"

(* Default [Auto] node budget.  Generous on purpose: the point of the
   gate is to refuse pathological joins (thousands of differing cells
   with large arms), not to second-guess ordinary diamonds and loop
   exits. *)
let default_budget = 16384

let budget mode ~cost_budget =
  match mode with
  | Off -> invalid_arg "Policy.budget: mode is off"
  | Always -> None
  | Auto -> Some cost_budget
