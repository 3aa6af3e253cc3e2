(** Path-selection strategies (the paper's priority-based selectors:
    DepthFirst, BreadthFirst, Random, plus a generic scored searcher that
    MaxCoverage builds on). *)

module Obs = S2e_obs

type t = {
  add : State.t -> unit;
  remove : State.t -> unit;
  select : unit -> State.t option;
  size : unit -> int;
}

(* Scheduling telemetry: adds = states entering a frontier (initial state,
   forks, steals); selects = scheduling decisions that yielded a state.
   Shared by every selector so strategies are comparable. *)
let m_adds = Obs.Metrics.counter "searcher.adds"
let m_selects = Obs.Metrics.counter "searcher.selects"

let instrument t =
  {
    t with
    add =
      (fun s ->
        Obs.Metrics.incr m_adds;
        t.add s);
    select =
      (fun () ->
        match t.select () with
        | Some _ as r ->
            Obs.Metrics.incr m_selects;
            r
        | None -> None);
  }

let filter_live states = List.filter State.is_active states

(* Pop dead states off the top of a stack; the first live state is the
   same one filtering the whole stack would put on top, and dead states
   further down are popped when they surface. *)
let rec drop_dead = function
  | s :: rest when not (State.is_active s) -> drop_dead rest
  | l -> l

let dfs () =
  let stack = ref [] in
  instrument
  {
    add = (fun s -> stack := s :: !stack);
    remove = (fun s -> stack := List.filter (fun s' -> s'.State.id <> s.State.id) !stack);
    select =
      (fun () ->
        stack := drop_dead !stack;
        match !stack with [] -> None | s :: _ -> Some s);
    size = (fun () -> List.length (filter_live !stack));
  }

let bfs () =
  let queue = Queue.create () in
  let live = Hashtbl.create 64 in
  instrument
  {
    add =
      (fun s ->
        Queue.push s queue;
        Hashtbl.replace live s.State.id ());
    remove = (fun s -> Hashtbl.remove live s.State.id);
    select =
      (fun () ->
        let rec go () =
          match Queue.peek_opt queue with
          | None -> None
          | Some s when State.is_active s && Hashtbl.mem live s.State.id -> Some s
          | Some _ ->
              ignore (Queue.pop queue);
              go ()
        in
        go ());
    size =
      (fun () ->
        Queue.fold (fun n s -> if State.is_active s then n + 1 else n) 0 queue);
  }

let random ?(seed = 42) () =
  let rng = Random.State.make [| seed |] in
  let states = ref [] in
  instrument
  {
    add = (fun s -> states := s :: !states);
    remove = (fun s -> states := List.filter (fun s' -> s'.State.id <> s.State.id) !states);
    select =
      (fun () ->
        states := filter_live !states;
        match !states with
        | [] -> None
        | l -> Some (List.nth l (Random.State.int rng (List.length l))));
    size = (fun () -> List.length (filter_live !states));
  }

(** Pick the live state maximizing [score] (recomputed at each selection,
    so scores may depend on global analysis state such as coverage). *)
let scored score =
  let states = ref [] in
  instrument
  {
    add = (fun s -> states := s :: !states);
    remove = (fun s -> states := List.filter (fun s' -> s'.State.id <> s.State.id) !states);
    select =
      (fun () ->
        states := filter_live !states;
        match !states with
        | [] -> None
        | first :: rest ->
            Some
              (List.fold_left
                 (fun best s -> if score s > score best then s else best)
                 first rest));
    size = (fun () -> List.length (filter_live !states));
  }

(* Default score for the coverage-seeking selector: prefer shallow states,
   breaking ties toward the path that has executed the fewest instructions.
   Without global coverage feedback this approximates MaxCoverage's "get
   out of explored neighbourhoods" bias (paper section 4.1). *)
let maxcov_score (s : State.t) = -((s.depth * 1_000_000) + s.instret)

let selector_names = [ "dfs"; "bfs"; "random"; "scored"; "maxcov" ]

let of_name = function
  | "dfs" -> dfs ()
  | "bfs" -> bfs ()
  | "random" -> random ()
  | "scored" | "maxcov" -> scored maxcov_score
  | s ->
      invalid_arg
        (Printf.sprintf "unknown searcher %S (valid selectors: %s)" s
           (String.concat ", " selector_names))
