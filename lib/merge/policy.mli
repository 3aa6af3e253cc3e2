(** Merge policy: benefit-gated ite-joins ([--merge=always|auto|off]).

    The [Auto] decision is purely structural (predicted ite node blow-up
    against a fixed budget) so merged exploration stays deterministic
    across worker counts. *)

type mode = Off | Auto | Always

val mode_names : string list
val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string

val default_budget : int
(** Default [Auto] node budget for a single join. *)

val budget : mode -> cost_budget:int -> int option
(** The node budget {!Join.attempt} should enforce: [None] for [Always]
    (merge unconditionally), [Some cost_budget] for [Auto].
    @raise Invalid_argument on [Off]. *)
