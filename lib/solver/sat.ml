(** A CDCL SAT solver (two-watched-literal propagation, first-UIP clause
    learning, VSIDS-style activities, geometric restarts) with an
    incremental assumption-stack interface.

    Variables are integers starting at 0.  A literal is [2*v] for the
    positive and [2*v+1] for the negative polarity.  This is the backend the
    bit-blaster ({!Bitblast}) targets; it plays the role STP's SAT core plays
    in the paper's prototype.

    Incremental use: clauses added with {!add_clause} are permanent, but
    literals asserted through the assumption stack ({!push}/{!assume}/
    {!pop}) are retractable — {!solve} decides them as the first decision
    levels of the search, MiniSat-style, so popping a frame is O(1) and
    never deletes a clause.  Because every learned clause is derived by
    resolution from the permanent clause set alone (assumptions enter
    learned clauses as ordinary literals, never as resolved-away premises),
    all learned clauses remain valid across pops: retention is level-0-safe
    by construction.  Growth is bounded by an activity-ordered learned-
    clause database with geometric reduction. *)

type lit = int

let pos v : lit = v * 2
let neg v : lit = (v * 2) + 1
let lit_var (l : lit) = l / 2
let lit_neg (l : lit) = l lxor 1
let lit_sign (l : lit) = l land 1 = 0 (* true when positive *)

type clause = {
  mutable lits : lit array;
  mutable learned : bool;
  mutable act : float; (* clause activity, learned clauses only *)
}

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int; (* learned clauses ever created (excluding learned units) *)
  learned_kept : int; (* learned clauses currently live (post-reduction) *)
}

type t = {
  mutable nvars : int;
  mutable clauses : clause array;
  mutable nclauses : int;
  (* watches.(l) = indices of clauses watching literal l *)
  mutable watches : int list array;
  (* assignment: 0 = unassigned, 1 = true, 2 = false *)
  mutable assign : Bytes.t;
  mutable level : int array;
  mutable reason : int array; (* clause index or -1 *)
  mutable trail : int array;  (* literals, in assignment order *)
  mutable trail_len : int;
  mutable trail_lim : int array; (* trail length at each decision level *)
  mutable trail_lim_len : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  (* Branching order: a binary max-heap of variables on (activity desc,
     index asc).  Every unassigned variable is in it; assigned ones may
     linger and are discarded when popped.  [heap_pos.(v)] is [v]'s slot,
     or -1. *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;
  mutable polarity : Bytes.t; (* saved phase: 1 = last true *)
  (* Assumption stack: retractable asserted literals, oldest first.
     [frame_lim] holds the assumption count at each {!push}. *)
  mutable assumptions : lit array;
  mutable n_assumptions : int;
  mutable frame_lim : int array;
  mutable n_frames : int;
  (* Learned-clause database bound: when the live learned count passes
     [learn_limit], the lowest-activity half is dropped and the limit
     grows geometrically. *)
  mutable cla_inc : float;
  mutable learn_limit : int;
  mutable n_learned_live : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned_total : int;
  mutable unsat : bool;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 64 { lits = [||]; learned = false; act = 0. };
    nclauses = 0;
    watches = Array.make 16 [];
    assign = Bytes.make 8 '\000';
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    trail = Array.make 8 0;
    trail_len = 0;
    trail_lim = Array.make 8 0;
    trail_lim_len = 0;
    qhead = 0;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    heap = Array.make 8 0;
    heap_len = 0;
    heap_pos = Array.make 8 (-1);
    polarity = Bytes.make 8 '\000';
    assumptions = Array.make 8 0;
    n_assumptions = 0;
    frame_lim = Array.make 8 0;
    n_frames = 0;
    cla_inc = 1.0;
    learn_limit = 2000;
    n_learned_live = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned_total = 0;
    unsat = false;
  }

let grow_array a n default =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow_bytes b n =
  if Bytes.length b >= n then b
  else begin
    let b' = Bytes.make (max n (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

(* ------------------------------------------------------------------ *)
(* Branching heap                                                      *)
(* ------------------------------------------------------------------ *)

(* The heap order breaks activity ties on the lower index, so its top is
   exactly the variable a linear scan keeping the first strict maximum
   would pick: the cold-solve trajectory, and with it every emitted case
   byte, does not depend on which of the two picks the branch. *)
let before s a b =
  let aa = s.activity.(a) and ab = s.activity.(b) in
  aa > ab || (aa = ab && a < b)

let heap_set s i v =
  s.heap.(i) <- v;
  s.heap_pos.(v) <- i

let sift_up s i =
  let v = s.heap.(i) in
  let i = ref i in
  while !i > 0 && before s v s.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    heap_set s !i s.heap.(parent);
    i := parent
  done;
  heap_set s !i v

let sift_down s i =
  let v = s.heap.(i) in
  let i = ref i in
  let settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= s.heap_len then settled := true
    else begin
      let r = l + 1 in
      let c =
        if r < s.heap_len && before s s.heap.(r) s.heap.(l) then r else l
      in
      if before s s.heap.(c) v then begin
        heap_set s !i s.heap.(c);
        i := c
      end
      else settled := true
    end
  done;
  heap_set s !i v

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    heap_set s s.heap_len v;
    s.heap_len <- s.heap_len + 1;
    sift_up s (s.heap_len - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_pos.(v) <- -1;
  s.heap_len <- s.heap_len - 1;
  if s.heap_len > 0 then begin
    heap_set s 0 s.heap.(s.heap_len);
    sift_down s 0
  end;
  v

let heap_rebuild s =
  for i = (s.heap_len / 2) - 1 downto 0 do
    sift_down s i
  done

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assign <- grow_bytes s.assign s.nvars;
  s.polarity <- grow_bytes s.polarity s.nvars;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars (-1);
  s.trail <- grow_array s.trail s.nvars 0;
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.heap <- grow_array s.heap s.nvars 0;
  s.heap_pos <- grow_array s.heap_pos s.nvars (-1);
  s.watches <- grow_array s.watches (2 * s.nvars) [];
  heap_insert s v;
  v

(* Value of a literal: 0 unassigned, 1 true, 2 false. *)
let lit_value s (l : lit) =
  let v = Char.code (Bytes.get s.assign (lit_var l)) in
  if v = 0 then 0 else if lit_sign l then v else 3 - v

let decision_level s = s.trail_lim_len

let enqueue s (l : lit) reason =
  let v = lit_var l in
  Bytes.set s.assign v (Char.chr (if lit_sign l then 1 else 2));
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    (* Rounding can tie activities that differed, and ties order on the
       index: re-heapify rather than trust the old shape. *)
    heap_rebuild s
  end
  else if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

let decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s ci =
  let c = s.clauses.(ci) in
  if c.learned then begin
    c.act <- c.act +. s.cla_inc;
    if c.act > 1e20 then begin
      for i = 0 to s.nclauses - 1 do
        let d = s.clauses.(i) in
        if d.learned then d.act <- d.act *. 1e-20
      done;
      s.cla_inc <- s.cla_inc *. 1e-20
    end
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

let backtrack s target_level =
  if decision_level s > target_level then begin
    let bound = s.trail_lim.(target_level) in
    for i = s.trail_len - 1 downto bound do
      let l = s.trail.(i) in
      let v = lit_var l in
      Bytes.set s.polarity v (if lit_sign l then '\001' else '\000');
      Bytes.set s.assign v '\000';
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.trail_lim_len <- target_level
  end

let add_clause_internal s lits learned =
  let c = { lits; learned; act = 0. } in
  if s.nclauses >= Array.length s.clauses then
    s.clauses <- grow_array s.clauses (s.nclauses + 1) c;
  s.clauses.(s.nclauses) <- c;
  let idx = s.nclauses in
  s.nclauses <- s.nclauses + 1;
  if learned then begin
    s.learned_total <- s.learned_total + 1;
    s.n_learned_live <- s.n_learned_live + 1
  end;
  if Array.length lits >= 2 then begin
    s.watches.(lits.(0)) <- idx :: s.watches.(lits.(0));
    s.watches.(lits.(1)) <- idx :: s.watches.(lits.(1))
  end;
  idx

(** Add a problem clause.  Performs top-level simplification: satisfied
    clauses are dropped, false literals removed.  The solver backtracks to
    decision level 0 first, so clauses can be added between incremental
    solves (any model from the previous solve must be read before).  The
    stored clause keeps its literals in ascending order. *)
let add_clause s lits =
  if not s.unsat then begin
    backtrack s 0;
    (* Insertion sort: the bit-blaster's clauses have at most three
       literals, where it beats a general sort's setup. *)
    let a = Array.of_list lits in
    for i = 1 to Array.length a - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    (* Compact in place.  Sorting puts duplicates side by side, and a
       literal next to its negation (2v, 2v+1), so both are checks on the
       previous literal. *)
    let n = Array.length a in
    let k = ref 0 in
    let prev = ref (-1) in
    let tautology = ref false in
    let i = ref 0 in
    while !i < n && not !tautology do
      let l = a.(!i) in
      if l <> !prev then begin
        if l = lit_neg !prev then tautology := true
        else begin
          match lit_value s l with
          | 1 -> tautology := true
          | 2 -> ()
          | _ ->
              a.(!k) <- l;
              incr k
        end;
        prev := l
      end;
      incr i
    done;
    if not !tautology then
      match !k with
      | 0 -> s.unsat <- true
      | 1 -> enqueue s a.(0) (-1)
      | k ->
          let lits = if k = n then a else Array.sub a 0 k in
          ignore (add_clause_internal s lits false)
  end

(* ------------------------------------------------------------------ *)
(* Assumption stack                                                    *)
(* ------------------------------------------------------------------ *)

(** Open a new assumption frame (a retractable checkpoint). *)
let push s =
  s.frame_lim <- grow_array s.frame_lim (s.n_frames + 1) 0;
  s.frame_lim.(s.n_frames) <- s.n_assumptions;
  s.n_frames <- s.n_frames + 1

(** Assert [l] within the current top frame: it holds in every subsequent
    {!solve} until the frame is popped. *)
let assume s l =
  s.assumptions <- grow_array s.assumptions (s.n_assumptions + 1) 0;
  s.assumptions.(s.n_assumptions) <- l;
  s.n_assumptions <- s.n_assumptions + 1

(** Retract the top assumption frame.  O(1): assumptions are search-time
    decisions, not clauses, so nothing is deleted — and every learned
    clause remains valid (it is implied by the permanent clause set). *)
let pop s =
  if s.n_frames = 0 then invalid_arg "Sat.pop: empty frame stack";
  s.n_frames <- s.n_frames - 1;
  s.n_assumptions <- s.frame_lim.(s.n_frames);
  (* Assumption-level assignments are stale now. *)
  backtrack s 0

let frames s = s.n_frames

(* ------------------------------------------------------------------ *)
(* Propagation, analysis, search                                       *)
(* ------------------------------------------------------------------ *)

(* Propagate all enqueued assignments.  Returns the index of a conflicting
   clause, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = lit_neg l in
    let ws = s.watches.(falsified) in
    s.watches.(falsified) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest -> (
          let c = s.clauses.(ci) in
          let lits = c.lits in
          (* Ensure the falsified literal is at position 1. *)
          if lits.(0) = falsified then begin
            lits.(0) <- lits.(1);
            lits.(1) <- falsified
          end;
          if lit_value s lits.(0) = 1 then begin
            (* Clause already satisfied; keep the watch. *)
            s.watches.(falsified) <- ci :: s.watches.(falsified);
            go rest
          end
          else begin
            (* Look for a new watch. *)
            let n = Array.length lits in
            let rec find i =
              if i >= n then -1
              else if lit_value s lits.(i) <> 2 then i
              else find (i + 1)
            in
            let i = find 2 in
            if i >= 0 then begin
              lits.(1) <- lits.(i);
              lits.(i) <- falsified;
              s.watches.(lits.(1)) <- ci :: s.watches.(lits.(1));
              go rest
            end
            else begin
              s.watches.(falsified) <- ci :: s.watches.(falsified);
              if lit_value s lits.(0) = 2 then begin
                (* Conflict: restore remaining watches and stop. *)
                conflict := ci;
                List.iter
                  (fun cj ->
                    s.watches.(falsified) <- cj :: s.watches.(falsified))
                  rest
              end
              else begin
                enqueue s lits.(0) ci;
                go rest
              end
            end
          end)
    in
    go ws
  done;
  !conflict

(* First-UIP conflict analysis.  Returns (learned clause, backtrack level). *)
let analyze s conflict =
  let seen = Bytes.make s.nvars '\000' in
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail_len - 1) in
  let clause = ref conflict in
  let continue = ref true in
  while !continue do
    cla_bump s !clause;
    let lits = s.clauses.(!clause).lits in
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length lits - 1 do
      let q = lits.(i) in
      let v = lit_var q in
      if Bytes.get seen v = '\000' && s.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else learned := q :: !learned
      end
    done;
    (* Select next literal to expand: most recent seen literal on trail. *)
    let rec next () =
      let l = s.trail.(!idx) in
      decr idx;
      if Bytes.get seen (lit_var l) = '\001' then l else next ()
    in
    let l = next () in
    decr counter;
    if !counter = 0 then begin
      p := lit_neg l;
      continue := false
    end
    else begin
      clause := s.reason.(lit_var l);
      (* Put the resolved literal at front position convention. *)
      let lits = s.clauses.(!clause).lits in
      if lits.(0) <> l then begin
        let rec find i = if lits.(i) = l then i else find (i + 1) in
        let i = find 0 in
        lits.(i) <- lits.(0);
        lits.(0) <- l
      end
    end
  done;
  let learned = !p :: !learned in
  (* Backtrack level: second-highest level in the learned clause. *)
  let blevel =
    List.fold_left
      (fun acc l ->
        let v = lit_var l in
        if l <> !p && s.level.(v) > acc then s.level.(v) else acc)
      0 learned
  in
  (learned, blevel)

(* ------------------------------------------------------------------ *)
(* Learned-clause database reduction                                   *)
(* ------------------------------------------------------------------ *)

(* Is clause [ci] the reason of a current assignment?  The propagated
   literal sits at position 0 by the enqueue/analyze conventions. *)
let locked s ci =
  let lits = s.clauses.(ci).lits in
  Array.length lits > 0
  && lit_value s lits.(0) = 1
  && s.reason.(lit_var lits.(0)) = ci

(* Drop the lowest-activity half of the removable learned clauses
   (non-binary, not locked as a reason).  Must run at decision level 0.
   Clause indices shift, so watches are rebuilt and reasons remapped;
   [qhead] rewinds so the rebuilt watch lists re-establish the propagation
   invariant over the level-0 trail.  Deterministic: the survivor set is a
   pure function of the clause database (ties break on clause index). *)
let reduce_db s =
  let removable = ref [] in
  for ci = 0 to s.nclauses - 1 do
    let c = s.clauses.(ci) in
    if c.learned && Array.length c.lits > 2 && not (locked s ci) then
      removable := (c.act, ci) :: !removable
  done;
  let removable = Array.of_list !removable in
  Array.sort compare removable;
  let ndrop = Array.length removable / 2 in
  if ndrop > 0 then begin
    let drop = Bytes.make s.nclauses '\000' in
    for i = 0 to ndrop - 1 do
      Bytes.set drop (snd removable.(i)) '\001'
    done;
    let map = Array.make s.nclauses (-1) in
    let w = ref 0 in
    for ci = 0 to s.nclauses - 1 do
      if Bytes.get drop ci = '\000' then begin
        map.(ci) <- !w;
        s.clauses.(!w) <- s.clauses.(ci);
        incr w
      end
    done;
    s.nclauses <- !w;
    s.n_learned_live <- s.n_learned_live - ndrop;
    (* Rebuild the watch lists over the surviving clauses, preferring
       non-false watch positions so the two-watch invariant holds at
       level 0. *)
    Array.fill s.watches 0 (Array.length s.watches) [];
    for ci = 0 to s.nclauses - 1 do
      let lits = s.clauses.(ci).lits in
      if Array.length lits >= 2 then begin
        let n = Array.length lits in
        let swap i j =
          let t = lits.(i) in
          lits.(i) <- lits.(j);
          lits.(j) <- t
        in
        let best = ref 0 in
        for i = 1 to n - 1 do
          if lit_value s lits.(i) <> 2 && lit_value s lits.(!best) = 2 then
            best := i
        done;
        swap 0 !best;
        let best = ref 1 in
        for i = 2 to n - 1 do
          if lit_value s lits.(i) <> 2 && lit_value s lits.(!best) = 2 then
            best := i
        done;
        swap 1 !best;
        s.watches.(lits.(0)) <- ci :: s.watches.(lits.(0));
        s.watches.(lits.(1)) <- ci :: s.watches.(lits.(1))
      end
    done;
    (* Kept clauses changed index: remap the reasons of the (level-0)
       trail.  Locked clauses were kept, so the map is always defined. *)
    for i = 0 to s.trail_len - 1 do
      let v = lit_var s.trail.(i) in
      if s.reason.(v) >= 0 then s.reason.(v) <- map.(s.reason.(v))
    done;
    (* Re-run propagation over the whole trail against the new watches. *)
    s.qhead <- 0
  end;
  s.learn_limit <- s.learn_limit + (s.learn_limit / 5)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* Pick the unassigned variable with the highest activity (lowest index
   on ties), or -1 when every variable is assigned. *)
let rec pick_branch s =
  if s.heap_len = 0 then -1
  else
    let v = heap_pop s in
    if Bytes.get s.assign v = '\000' then v else pick_branch s

type result = Sat | Unsat | Unknown

(* The search loop, parameterized by the literals assumed for this call:
   the persistent assumption stack followed by the caller's extra probes.
   Assumptions are decided in order as the first decision levels; a
   falsified assumption means Unsat under the current assumptions without
   poisoning the instance (s.unsat stays false).  With no assumptions this
   is the classic restart loop, bit-for-bit. *)
let solve_gen ?max_conflicts ?deadline s extra =
  if s.unsat then Unsat
  else if
    match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
  then Unknown
  else begin
    backtrack s 0;
    let n_assumed = s.n_assumptions + List.length extra in
    let assumed i =
      if i < s.n_assumptions then s.assumptions.(i)
      else List.nth extra (i - s.n_assumptions)
    in
    let result = ref None in
    let restart_limit = ref 100 in
    let conflicts_here = ref 0 in
    let iters = ref 0 in
    while !result = None do
      (match deadline with
      | Some d ->
          incr iters;
          if !iters land 63 = 0 && Unix.gettimeofday () >= d then
            result := Some Unknown
      | None -> ());
      let conflict = propagate s in
      if conflict >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_here;
        (match max_conflicts with
        | Some m when s.conflicts > m -> result := Some Unknown
        | _ -> ());
        if decision_level s = 0 then begin
          s.unsat <- true;
          result := Some Unsat
        end
        else if !result = None then begin
          let learned, blevel = analyze s conflict in
          backtrack s blevel;
          decay s;
          cla_decay s;
          (match learned with
          | [ l ] -> enqueue s l (-1)
          | l :: _ ->
              let idx = add_clause_internal s (Array.of_list learned) true in
              enqueue s l idx
          | [] -> assert false);
          (* Conflict analysis may have backtracked into (or below) the
             assumption levels; the decision loop re-assumes from there.
             If the asserting literal now contradicts a pending
             assumption, the re-assume below detects it as Unsat. *)
          if s.n_learned_live >= s.learn_limit && decision_level s = 0 then
            reduce_db s
        end
      end
      else if decision_level s < n_assumed then begin
        (* Decide the next assumption. *)
        let l = assumed (decision_level s) in
        match lit_value s l with
        | 2 ->
            (* Falsified under the permanent clauses plus the assumptions
               already decided: unsatisfiable under assumptions only. *)
            result := Some Unsat
        | v ->
            s.trail_lim <- grow_array s.trail_lim (s.trail_lim_len + 1) 0;
            s.trail_lim.(s.trail_lim_len) <- s.trail_len;
            s.trail_lim_len <- s.trail_lim_len + 1;
            if v = 0 then enqueue s l (-1)
      end
      else if !conflicts_here > !restart_limit then begin
        conflicts_here := 0;
        restart_limit := !restart_limit * 3 / 2;
        s.restarts <- s.restarts + 1;
        backtrack s 0
      end
      else begin
        let v = pick_branch s in
        if v < 0 then result := Some Sat
        else begin
          s.decisions <- s.decisions + 1;
          s.trail_lim <- grow_array s.trail_lim (s.trail_lim_len + 1) 0;
          s.trail_lim.(s.trail_lim_len) <- s.trail_len;
          s.trail_lim_len <- s.trail_lim_len + 1;
          let phase = Bytes.get s.polarity v = '\001' in
          enqueue s (if phase then pos v else neg v) (-1)
        end
      end
    done;
    match !result with
    | Some Unsat when decision_level s > 0 || s.n_assumptions > 0 ->
        (* Unsat under assumptions: leave the instance reusable. *)
        backtrack s 0;
        Unsat
    | Some r -> r
    | None -> assert false
  end

(** Solve the permanent clause set under the stacked assumptions.  On [Sat]
    the model can be read with {!model_value}.  [max_conflicts] bounds the
    search ([None] = no bound); [deadline] is an absolute
    [Unix.gettimeofday] cutoff past which the search gives up with
    [Unknown] (checked on entry and every few dozen loop iterations, so
    even a tiny budget fires promptly). *)
let solve ?max_conflicts ?deadline s = solve_gen ?max_conflicts ?deadline s []

(** {!solve} with extra assumption literals for this call only — the
    incremental probe: the stacked frames stay asserted, [extra] is
    retracted automatically when the call returns. *)
let solve_assuming ?max_conflicts ?deadline s extra =
  solve_gen ?max_conflicts ?deadline s extra

(** Value of variable [v] in the model found by the last successful
    {!solve}.  Unassigned variables default to false. *)
let model_value s v =
  v < s.nvars && Bytes.get s.assign v = '\001'

(** Overwrite the saved phases from a seeded xorshift stream: gives
    portfolio instances distinct early search trajectories over the same
    clauses.  Deterministic in [seed]. *)
let perturb s seed =
  let x = ref (seed lor 1) in
  for v = 0 to s.nvars - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    Bytes.set s.polarity v (if !x land 1 = 1 then '\001' else '\000')
  done

(* Rough memory footprint proxy: callers retire instances that grow past
   their budget. *)
let size s = s.nclauses

let stats s =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learned = s.learned_total;
    learned_kept = s.n_learned_live;
  }
