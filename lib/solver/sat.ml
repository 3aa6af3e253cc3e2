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
    levels of the search, MiniSat-style, so popping a frame never deletes
    a clause.  The trail outlives each solve: the next one keeps the
    levels that decided its own leading assumptions and re-propagates
    only from the first that changed.  Because every learned clause is
    derived by resolution from the permanent clause set alone (assumptions
    enter learned clauses as ordinary literals, never as resolved-away
    premises), all learned clauses remain valid across pops: retention is
    level-0-safe by construction.  Growth is bounded by an activity-ordered
    learned-clause database with geometric reduction.

    Storage is flat: every clause's literals live in one int arena, the
    per-clause attributes in parallel arrays, and each literal's watch list
    in an int vector, so adding or propagating a clause allocates nothing
    the minor heap would have to promote.  {!reset} empties an instance
    while keeping that storage, for callers that solve many cold problems
    in a row. *)

type lit = int

let pos v : lit = v * 2
let neg v : lit = (v * 2) + 1
let lit_var (l : lit) = l / 2
let lit_neg (l : lit) = l lxor 1
let lit_sign (l : lit) = l land 1 = 0 (* true when positive *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int; (* learned clauses ever created (excluding learned units) *)
  learned_kept : int; (* learned clauses currently live (post-reduction) *)
  vars : int;
  clauses : int; (* problem clauses stored; [reduce_db] drops learned ones only *)
}

type t = {
  mutable nvars : int;
  (* Clause arena: clause [ci]'s literals are
     [arena.(cstart.(ci)) .. arena.(cstart.(ci) + clen.(ci) - 1)].  Clauses
     are laid out in index order, so [reduce_db] compacts by sliding the
     survivors down. *)
  mutable arena : int array;
  mutable arena_len : int;
  mutable cstart : int array;
  mutable clen : int array;
  mutable clearned : Bytes.t; (* 1 = learned clause *)
  mutable cact : float array; (* clause activity, learned clauses only *)
  mutable nclauses : int;
  (* [watches.(l)] holds, in its first [wlen.(l)] slots, the clauses
     watching literal [l].  Watch-visit order is part of the cold-solve
     trajectory (DESIGN.md §12), so each vector is used as a stack:
     [watch] pushes, and [propagate] visits from the top down. *)
  mutable watches : int array array;
  mutable wlen : int array;
  mutable wbuf : int array; (* [propagate]'s copy of the stack it visits *)
  (* assignment: 0 = unassigned, 1 = true, 2 = false *)
  mutable assign : Bytes.t;
  mutable level : int array;
  mutable reason : int array; (* clause index or -1 *)
  mutable trail : int array;  (* literals, in assignment order *)
  mutable trail_len : int;
  mutable trail_lim : int array; (* trail length at each decision level *)
  mutable trail_lim_len : int;
  (* The trail outlives a solve (DESIGN.md §12): decision level [i+1] of
     the last solve decided assumption [i], recorded in [lim_lit.(i)], for
     every [i < assumed_levels]; the levels above are search decisions. *)
  mutable lim_lit : int array;
  mutable assumed_levels : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  (* Branching order, (activity desc, index asc), in two tiers.  The
     binary max-heap holds the variables whose activity is above 0: every
     unassigned one is in it, and assigned ones may linger and are
     discarded when popped.  [heap_pos.(v)] is [v]'s slot, or -1.  Every
     unassigned variable of activity 0 has an index of at least [cursor],
     so when the heap runs dry the branch is the first unassigned variable
     from [cursor] up. *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;
  mutable cursor : int;
  (* Test-only observer of every branching pick (DESIGN.md §12). *)
  mutable on_pick : (int -> unit) option;
  mutable polarity : Bytes.t; (* saved phase: 1 = last true *)
  (* Conflict-analysis scratch: [seen] marks the variables met in the
     current analysis (all 0 between analyses); [learnt] receives the
     learned clause. *)
  mutable seen : Bytes.t;
  mutable learnt : int array;
  mutable cbuf : int array; (* [add_clause]'s normalization buffer *)
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

let initial_learn_limit = 2000

let create () =
  {
    nvars = 0;
    arena = Array.make 256 0;
    arena_len = 0;
    cstart = Array.make 64 0;
    clen = Array.make 64 0;
    clearned = Bytes.make 64 '\000';
    cact = Array.make 64 0.;
    nclauses = 0;
    watches = Array.make 16 [||];
    wlen = Array.make 16 0;
    wbuf = Array.make 16 0;
    assign = Bytes.make 8 '\000';
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    trail = Array.make 8 0;
    trail_len = 0;
    trail_lim = Array.make 8 0;
    trail_lim_len = 0;
    lim_lit = Array.make 8 0;
    assumed_levels = 0;
    qhead = 0;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    heap = Array.make 8 0;
    heap_len = 0;
    heap_pos = Array.make 8 (-1);
    cursor = 0;
    on_pick = None;
    polarity = Bytes.make 8 '\000';
    seen = Bytes.make 8 '\000';
    learnt = Array.make 8 0;
    cbuf = Array.make 8 0;
    assumptions = Array.make 8 0;
    n_assumptions = 0;
    frame_lim = Array.make 8 0;
    n_frames = 0;
    cla_inc = 1.0;
    learn_limit = initial_learn_limit;
    n_learned_live = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learned_total = 0;
    unsat = false;
  }

(* Every scalar back to [create]'s value.  The arrays keep their contents:
   slots past [nvars] / [nclauses] / a vector's length are never read
   before [new_var] / [add_clause_internal] / a push writes them.  The
   test observer stays: it watches the instance, it is not its state. *)
let reset s =
  s.nvars <- 0;
  s.arena_len <- 0;
  s.nclauses <- 0;
  s.trail_len <- 0;
  s.trail_lim_len <- 0;
  s.assumed_levels <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.heap_len <- 0;
  s.cursor <- 0;
  s.n_assumptions <- 0;
  s.n_frames <- 0;
  s.cla_inc <- 1.0;
  s.learn_limit <- initial_learn_limit;
  s.n_learned_live <- 0;
  s.conflicts <- 0;
  s.decisions <- 0;
  s.propagations <- 0;
  s.restarts <- 0;
  s.learned_total <- 0;
  s.unsat <- false

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

(* Push clause [ci] onto literal [l]'s watch stack. *)
let watch s l ci =
  let n = s.wlen.(l) in
  let w = s.watches.(l) in
  let w =
    if n < Array.length w then w
    else begin
      let w' = Array.make (max 4 (2 * n)) 0 in
      Array.blit w 0 w' 0 n;
      s.watches.(l) <- w';
      w'
    end
  in
  w.(n) <- ci;
  s.wlen.(l) <- n + 1

(* ------------------------------------------------------------------ *)
(* Branching order                                                     *)
(* ------------------------------------------------------------------ *)

(* The heap order breaks activity ties on the lower index, so its top is
   exactly the variable a linear scan keeping the first strict maximum
   would pick among the heap's variables.  Activities are never negative,
   so any of them beats every variable of activity 0, and among those the
   scan keeps the lowest index, the cursor's pick: the two tiers branch
   exactly as one heap of every variable would, and the cold-solve
   trajectory, with it every emitted case byte, does not move. *)
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

(* Rebuild both tiers from the activities: after a rescale, rounding can
   tie activities that differed and underflow some to 0.0, which moves
   those variables to the cursor tier. *)
let retier s =
  s.heap_len <- 0;
  for v = 0 to s.nvars - 1 do
    if s.activity.(v) > 0.0 then begin
      heap_set s s.heap_len v;
      s.heap_len <- s.heap_len + 1
    end
    else s.heap_pos.(v) <- -1
  done;
  for i = (s.heap_len / 2) - 1 downto 0 do
    sift_down s i
  done;
  s.cursor <- 0

(* Per-variable arrays share one capacity (twice it for the per-literal
   ones), so [new_var] checks a single bound. *)
let grow_vars s n =
  s.assign <- grow_bytes s.assign n;
  s.polarity <- grow_bytes s.polarity n;
  s.seen <- grow_bytes s.seen n;
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n (-1);
  s.trail <- grow_array s.trail n 0;
  s.learnt <- grow_array s.learnt n 0;
  s.activity <- grow_array s.activity n 0.0;
  s.heap <- grow_array s.heap n 0;
  s.heap_pos <- grow_array s.heap_pos n (-1);
  s.watches <- grow_array s.watches (2 * n) [||];
  s.wlen <- grow_array s.wlen (2 * n) 0

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  if v >= Array.length s.level then grow_vars s (2 * (v + 1));
  (* A reset instance hands out slots an earlier problem wrote. *)
  Bytes.set s.assign v '\000';
  Bytes.set s.polarity v '\000';
  Bytes.set s.seen v '\000';
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.activity.(v) <- 0.0;
  s.heap_pos.(v) <- -1;
  s.wlen.(pos v) <- 0;
  s.wlen.(neg v) <- 0;
  (* Activity 0, and [v] is at least [cursor]: already in the cursor
     tier. *)
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
    retier s
  end
  else if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)
  else heap_insert s v

let decay s = s.var_inc <- s.var_inc /. 0.95

let is_learned s ci = Bytes.get s.clearned ci = '\001'

let cla_bump s ci =
  if is_learned s ci then begin
    s.cact.(ci) <- s.cact.(ci) +. s.cla_inc;
    if s.cact.(ci) > 1e20 then begin
      for i = 0 to s.nclauses - 1 do
        if is_learned s i then s.cact.(i) <- s.cact.(i) *. 1e-20
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
      if s.activity.(v) > 0.0 then heap_insert s v
      else if v < s.cursor then s.cursor <- v
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.trail_lim_len <- target_level
  end

(* Store [src.(0 .. n-1)] (n >= 2) as clause [nclauses], watched on its
   first two literals. *)
let add_clause_internal s src n learned =
  let idx = s.nclauses in
  let start = s.arena_len in
  if start + n > Array.length s.arena then
    s.arena <- grow_array s.arena (start + n) 0;
  if idx >= Array.length s.cstart then begin
    s.cstart <- grow_array s.cstart (idx + 1) 0;
    s.clen <- grow_array s.clen (idx + 1) 0;
    s.clearned <- grow_bytes s.clearned (idx + 1);
    s.cact <- grow_array s.cact (idx + 1) 0.
  end;
  let a = s.arena in
  for i = 0 to n - 1 do
    a.(start + i) <- src.(i)
  done;
  s.arena_len <- start + n;
  s.cstart.(idx) <- start;
  s.clen.(idx) <- n;
  Bytes.set s.clearned idx (if learned then '\001' else '\000');
  s.cact.(idx) <- 0.;
  s.nclauses <- idx + 1;
  if learned then begin
    s.learned_total <- s.learned_total + 1;
    s.n_learned_live <- s.n_learned_live + 1
  end;
  watch s src.(0) idx;
  watch s src.(1) idx;
  idx

(* Intake of a clause of [k >= 2] literals, none assigned at level 0, while
   the trail holds levels above 0: watch two literals that are not false
   under the trail.  With only one, the clause is unit and its literal is
   enqueued at the current level with the clause as reason; the false
   literal watched beside it is the latest assigned, so backtracking frees
   it first.  A later backtrack that undoes the literal but not that watch
   leaves the clause unit with nothing implying it: a missed implication,
   never a wrong answer, since once the literal turns false its watch
   still finds the clause falsified.  A clause false under the trail
   drops the trail. *)
let add_clause_above s a k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let nf = ref 0 in
  for i = 0 to k - 1 do
    if lit_value s a.(i) <> 2 then begin
      swap !nf i;
      incr nf
    end
  done;
  if !nf = 0 then begin
    backtrack s 0;
    ignore (add_clause_internal s a k false)
  end
  else begin
    if !nf = 1 then begin
      let latest = ref 1 in
      for i = 2 to k - 1 do
        if s.level.(lit_var a.(i)) > s.level.(lit_var a.(!latest)) then
          latest := i
      done;
      swap 1 !latest
    end;
    let ci = add_clause_internal s a k false in
    if !nf = 1 && lit_value s a.(0) = 0 then enqueue s a.(0) ci
  end

(** Add a problem clause.  Performs top-level simplification: satisfied
    clauses are dropped, false literals removed, both judged on level-0
    assignments only.  Clauses can be added between incremental solves,
    while the trail the last solve left is still in place (any model from
    that solve must be read before).  At level 0 the stored clause keeps
    its literals in ascending order. *)
let add_clause s lits =
  if not s.unsat then begin
    let n = Array.length lits in
    if n > Array.length s.cbuf then s.cbuf <- grow_array s.cbuf n 0;
    let a = s.cbuf in
    (* Insertion sort into the buffer: the bit-blaster's clauses have at
       most three literals, where it beats a general sort's setup. *)
    for i = 0 to n - 1 do
      let x = lits.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    (* Compact in place.  Sorting puts duplicates side by side, and a
       literal next to its negation (2v, 2v+1), so both are checks on the
       previous literal.  Above level 0 an assigned literal counts only if
       its level is 0; a cold instance never looks a level up. *)
    let above = decision_level s > 0 in
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
          | 1 when not above || s.level.(lit_var l) = 0 -> tautology := true
          | 2 when not above || s.level.(lit_var l) = 0 -> ()
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
      | 1 ->
          backtrack s 0;
          enqueue s a.(0) (-1)
      | k when above -> add_clause_above s a k
      | k -> ignore (add_clause_internal s a k false)
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

(** Retract the top assumption frame.  Assumptions are search-time
    decisions, not clauses, so nothing is deleted — and every learned
    clause remains valid (it is implied by the permanent clause set). *)
let pop s =
  if s.n_frames = 0 then invalid_arg "Sat.pop: empty frame stack";
  s.n_frames <- s.n_frames - 1;
  s.n_assumptions <- s.frame_lim.(s.n_frames);
  (* The levels of the retracted assumptions, and any search above them,
     are stale now; the remaining assumptions' levels stay. *)
  backtrack s s.n_assumptions

let frames s = s.n_frames

(* ------------------------------------------------------------------ *)
(* Propagation, analysis, search                                       *)
(* ------------------------------------------------------------------ *)

(* Propagate all enqueued assignments.  Returns the index of a conflicting
   clause, or -1.  A falsified literal's watch stack is copied out and
   emptied, then visited from the top down; each clause that keeps the
   watch is pushed back as it is visited, and on a conflict the unvisited
   rest is pushed back in visit order.  The next visit of that literal
   thus sees the kept clauses in reverse, an order the trajectory lock
   pins. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let falsified = lit_neg l in
    let n = s.wlen.(falsified) in
    if n > Array.length s.wbuf then s.wbuf <- grow_array s.wbuf n 0;
    let ws = s.wbuf in
    let w = s.watches.(falsified) in
    for i = 0 to n - 1 do
      ws.(i) <- w.(i)
    done;
    s.wlen.(falsified) <- 0;
    let j = ref (n - 1) in
    while !j >= 0 do
      let ci = ws.(!j) in
      decr j;
      let a = s.arena in
      let st = s.cstart.(ci) in
      (* Ensure the falsified literal is at position 1. *)
      if a.(st) = falsified then begin
        a.(st) <- a.(st + 1);
        a.(st + 1) <- falsified
      end;
      if lit_value s a.(st) = 1 then
        (* Clause already satisfied; keep the watch. *)
        watch s falsified ci
      else begin
        (* Look for a new watch. *)
        let stop = st + s.clen.(ci) in
        let i = ref (st + 2) in
        while !i < stop && lit_value s a.(!i) = 2 do
          incr i
        done;
        if !i < stop then begin
          a.(st + 1) <- a.(!i);
          a.(!i) <- falsified;
          watch s a.(st + 1) ci
        end
        else begin
          watch s falsified ci;
          if lit_value s a.(st) = 2 then begin
            (* Conflict: restore remaining watches and stop. *)
            conflict := ci;
            while !j >= 0 do
              watch s falsified ws.(!j);
              decr j
            done
          end
          else enqueue s a.(st) ci
        end
      end
    done
  done;
  !conflict

(* First-UIP conflict analysis.  Leaves the learned clause in
   [learnt.(0 .. n-1)], the asserting literal first, and returns [n]. *)
let analyze s conflict =
  let seen = s.seen in
  (* Lower-level literals go to [learnt.(1 ..)] in discovery order. *)
  let nlow = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (s.trail_len - 1) in
  let clause = ref conflict in
  let continue = ref true in
  while !continue do
    cla_bump s !clause;
    let a = s.arena in
    let st = s.cstart.(!clause) in
    (* The whole clause: a reason's literal 0, the one just resolved on,
       is still marked and so skipped. *)
    for i = st to st + s.clen.(!clause) - 1 do
      let q = a.(i) in
      let v = lit_var q in
      if Bytes.get seen v = '\000' && s.level.(v) > 0 then begin
        Bytes.set seen v '\001';
        bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          incr nlow;
          s.learnt.(!nlow) <- q
        end
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
      let st = s.cstart.(!clause) in
      if a.(st) <> l then begin
        let rec find i = if a.(i) = l then i else find (i + 1) in
        let i = find st in
        a.(i) <- a.(st);
        a.(st) <- l
      end
    end
  done;
  (* Clear the marks: the current level's all lie on the trail segment
     [next] walked, the lower levels' are the discoveries. *)
  for i = !idx + 1 to s.trail_len - 1 do
    Bytes.set seen (lit_var s.trail.(i)) '\000'
  done;
  for i = 1 to !nlow do
    Bytes.set seen (lit_var s.learnt.(i)) '\000'
  done;
  (* The learned clause is the asserting literal, then the discoveries
     latest first: their order decides the watches and so the
     trajectory. *)
  let learnt = s.learnt in
  let n = !nlow + 1 in
  let i = ref 1 and k = ref (n - 1) in
  while !i < !k do
    let t = learnt.(!i) in
    learnt.(!i) <- learnt.(!k);
    learnt.(!k) <- t;
    incr i;
    decr k
  done;
  learnt.(0) <- !p;
  n

(* Backtrack level of a learned clause of [n] literals: the highest level
   among its literals past the asserting one. *)
let backjump_level s n =
  let lv = ref 0 in
  for i = 1 to n - 1 do
    let v = lit_var s.learnt.(i) in
    if s.level.(v) > !lv then lv := s.level.(v)
  done;
  !lv

(* ------------------------------------------------------------------ *)
(* Learned-clause database reduction                                   *)
(* ------------------------------------------------------------------ *)

(* Is clause [ci] the reason of a current assignment?  The propagated
   literal sits at position 0 by the enqueue/analyze conventions. *)
let locked s ci =
  let l0 = s.arena.(s.cstart.(ci)) in
  lit_value s l0 = 1 && s.reason.(lit_var l0) = ci

(* Drop the lowest-activity half of the removable learned clauses
   (non-binary, not locked as a reason).  Must run at decision level 0.
   Clause indices shift, so watches are rebuilt and reasons remapped;
   [qhead] rewinds so the rebuilt watch lists re-establish the propagation
   invariant over the level-0 trail.  Deterministic: the survivor set is a
   pure function of the clause database (ties break on clause index). *)
let reduce_db s =
  let removable = ref [] in
  for ci = s.nclauses - 1 downto 0 do
    if is_learned s ci && s.clen.(ci) > 2 && not (locked s ci) then
      removable := ci :: !removable
  done;
  let removable = Array.of_list !removable in
  Array.sort
    (fun a b ->
      let c = Float.compare s.cact.(a) s.cact.(b) in
      if c <> 0 then c else compare a b)
    removable;
  let ndrop = Array.length removable / 2 in
  if ndrop > 0 then begin
    let drop = Bytes.make s.nclauses '\000' in
    for i = 0 to ndrop - 1 do
      Bytes.set drop removable.(i) '\001'
    done;
    let map = Array.make s.nclauses (-1) in
    let w = ref 0 in
    let top = ref 0 in
    for ci = 0 to s.nclauses - 1 do
      if Bytes.get drop ci = '\000' then begin
        let len = s.clen.(ci) in
        map.(ci) <- !w;
        Array.blit s.arena s.cstart.(ci) s.arena !top len;
        s.cstart.(!w) <- !top;
        s.clen.(!w) <- len;
        Bytes.set s.clearned !w (Bytes.get s.clearned ci);
        s.cact.(!w) <- s.cact.(ci);
        top := !top + len;
        incr w
      end
    done;
    s.nclauses <- !w;
    s.arena_len <- !top;
    s.n_learned_live <- s.n_learned_live - ndrop;
    (* Rebuild the watch lists over the surviving clauses, preferring
       non-false watch positions so the two-watch invariant holds at
       level 0. *)
    Array.fill s.wlen 0 (2 * s.nvars) 0;
    let a = s.arena in
    for ci = 0 to s.nclauses - 1 do
      let st = s.cstart.(ci) and n = s.clen.(ci) in
      let swap i j =
        let t = a.(st + i) in
        a.(st + i) <- a.(st + j);
        a.(st + j) <- t
      in
      let best = ref 0 in
      for i = 1 to n - 1 do
        if lit_value s a.(st + i) <> 2 && lit_value s a.(st + !best) = 2 then
          best := i
      done;
      swap 0 !best;
      let best = ref 1 in
      for i = 2 to n - 1 do
        if lit_value s a.(st + i) <> 2 && lit_value s a.(st + !best) = 2 then
          best := i
      done;
      swap 1 !best;
      watch s a.(st) ci;
      watch s a.(st + 1) ci
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
   on ties), or -1 when every variable is assigned.  The heap holds every
   unassigned variable of activity above 0; once it is empty, the branch
   is the lowest unassigned index.  Until an instance's first conflict
   every activity is 0 and the heap stays empty. *)
let rec pick_branch s =
  if s.heap_len > 0 then
    let v = heap_pop s in
    if Bytes.get s.assign v = '\000' then v else pick_branch s
  else begin
    let c = ref s.cursor in
    while !c < s.nvars && Bytes.get s.assign !c <> '\000' do
      incr c
    done;
    s.cursor <- !c;
    if !c < s.nvars then !c else -1
  end

type result = Sat | Unsat | Unknown

(* The search loop, parameterized by the literals assumed for this call:
   the persistent assumption stack followed by the caller's extra probes.
   Assumption [i] is decided as decision level [i+1]; a falsified
   assumption means Unsat under the current assumptions without poisoning
   the instance (s.unsat stays false).  The call starts from the trail the
   last one left, backtracked to the longest prefix of levels that decided
   this call's assumptions, so a query re-propagates only the frames that
   changed.  With no assumptions the call starts at level 0 and is the
   classic restart loop, bit-for-bit. *)
let solve_gen ?max_conflicts ?deadline s extra =
  if s.unsat then Unsat
  else if
    match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
  then Unknown
  else begin
    let n_assumed = s.n_assumptions + List.length extra in
    let assumed i =
      if i < s.n_assumptions then s.assumptions.(i)
      else List.nth extra (i - s.n_assumptions)
    in
    let keep = ref 0 in
    let bound = min (min s.assumed_levels s.trail_lim_len) n_assumed in
    while !keep < bound && s.lim_lit.(!keep) = assumed !keep do
      incr keep
    done;
    backtrack s !keep;
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
          let n = analyze s conflict in
          backtrack s (backjump_level s n);
          decay s;
          cla_decay s;
          let l = s.learnt.(0) in
          if n = 1 then enqueue s l (-1)
          else enqueue s l (add_clause_internal s s.learnt n true);
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
            s.lim_lit <- grow_array s.lim_lit (s.trail_lim_len + 1) 0;
            s.trail_lim.(s.trail_lim_len) <- s.trail_len;
            s.lim_lit.(s.trail_lim_len) <- l;
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
        (match s.on_pick with Some f -> f v | None -> ());
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
    | Some Unknown ->
        (* A spent conflict budget can leave a conflict unanalyzed on the
           trail: the next call starts from level 0. *)
        backtrack s 0;
        Unknown
    | Some r ->
        (* Sat leaves its model on the trail, Unsat under assumptions the
           levels below the falsified one; both keep their assumption
           levels for the next call. *)
        s.assumed_levels <- min s.trail_lim_len n_assumed;
        r
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

(* Rough memory footprint proxy: callers retire instances that grow past
   their budget. *)
let size s = s.nclauses

(* Test-only entry points (sat.mli). *)
let on_pick s f = s.on_pick <- f
let activity s v = s.activity.(v)
let assigned s v = Bytes.get s.assign v <> '\000'
let set_var_inc s x = s.var_inc <- x

let stats s =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    learned = s.learned_total;
    learned_kept = s.n_learned_live;
    vars = s.nvars;
    clauses = s.nclauses - s.n_learned_live;
  }
