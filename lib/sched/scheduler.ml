(* Deterministic cooperative scheduler built on OCaml 5 effect handlers.

   Simulated threads are fibers that call [yield] at every instrumented
   operation (the preemption points of §4.2.2).  The scheduler picks the
   next runnable fiber with a seeded RNG, so a (seed, program) pair always
   produces the same interleaving — buggy interleavings found by the fuzzer
   are replayable.

   A fiber that exceeds neither budget nor failure runs to completion.  A
   run ends early at quiescence: when the runtime's spin stamps prove that
   every live fiber is spinning on a held lock that no write can release
   (see [quiescent]).  Fibers still suspended then, or when the step
   budget runs out, are killed (their continuations are discontinued so
   resources unwind) and reported as hung — this is how lock-related hangs
   (paper bugs 2, 5, 6) surface. *)

exception Killed
(* Raised inside a fiber when the scheduler kills it as hung. *)

type _ Effect.t += Yield : unit Effect.t

type resumption =
  | Finished
  | Failed of exn
  | Yielded of (unit, resumption) Effect.Deep.continuation

type fstate =
  | Not_started of (unit -> unit)
  | Suspended of (unit, resumption) Effect.Deep.continuation
  | Done
  | Crashed of exn

type fiber = { tid : int; name : string; mutable state : fstate }

type outcome = {
  steps : int;
  finished : int list;
  hung : (int * string) list;
  failed : (int * string * exn) list;
}

type t = {
  rng : Rng.t;
  step_budget : int;
  spin : int array; (* cell 0: write generation; cell 1 + tid: spin stamp *)
  mutable fibers : fiber list; (* reverse spawn order *)
  mutable count : int;
  mutable steps : int;
  mutable running : bool;
}

let create ?(step_budget = 200_000) ?(spin = [||]) ~rng () =
  { rng; step_budget; spin; fibers = []; count = 0; steps = 0; running = false }

let spawn t ~name body =
  if t.running then invalid_arg "Sched.spawn: cannot spawn while running";
  let tid = t.count in
  t.count <- t.count + 1;
  t.fibers <- { tid; name; state = Not_started body } :: t.fibers;
  tid

let yield () = Effect.perform Yield

let handler : (unit, resumption) Effect.Deep.handler =
  {
    retc = (fun () -> Finished);
    exnc = (fun e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some (fun (k : (a, resumption) Effect.Deep.continuation) -> Yielded k)
        | _ -> None);
  }

let start body = Effect.Deep.match_with body () handler
let resume k = Effect.Deep.continue k ()

let steps t = t.steps
let fiber_count t = t.count

(* Per-run step accounting, recorded once at the end of [run] (not per
   step) so the scheduler loop itself stays metric-free.  [t.steps] is
   cumulative across runs (the budget and [outcome.steps] observe it), so
   the metrics record the per-run *delta*, never the running total. *)
let m_steps_total = lazy (Obs.Metrics.counter "sched_steps_total")

let m_steps_per_run =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 50.; 200.; 1_000.; 5_000.; 20_000.; 60_000.; 200_000. |]
       "sched_steps_per_run")

let m_hung_fibers = lazy (Obs.Metrics.counter "sched_hung_fibers_total")

(* How each hung run ended: proven stuck at quiescence, or cut by the
   budget with some live fiber not proven stuck — a busy-wait the rule
   does not cover, or a slow but live run mislabelled hung. *)
let m_quiescent_hangs = lazy (Obs.Metrics.counter "sched_quiescent_hangs_total")
let m_budget_exhausted = lazy (Obs.Metrics.counter "sched_budget_exhausted_total")

(* Mean wall seconds per scheduling step (including the fiber's own work
   between preemption points), sampled once every [check_interval] steps
   so the hot loop pays one clock read per 64 steps, not per step. *)
let m_step_seconds =
  lazy
    (Obs.Metrics.histogram
       ~buckets:[| 2e-7; 5e-7; 1e-6; 2e-6; 5e-6; 1e-5; 5e-5; 2e-4 |]
       "sched_step_seconds")

let record f = function
  | Finished -> f.state <- Done
  | Failed e -> f.state <- Crashed e
  | Yielded k -> f.state <- Suspended k

(* Step one fiber: run it to its next preemption point (or completion /
   failure) and fold the resumption back into its state. *)
let step_fiber f =
  let r =
    match f.state with
    | Not_started body ->
        f.state <- Done (* placeholder; overwritten below *);
        start body
    | Suspended k ->
        f.state <- Done;
        resume k
    | Done | Crashed _ -> assert false
  in
  record f r

(* Quiescence: every live fiber carries the stamp [generation + 1] in the
   [spin] channel.  The runtime stamps a fiber after it failed a
   spin-lock CAS that read the pool at the current generation, and every
   PM write bumps the generation, so each such fiber's next attempt reads
   the same held lock word and fails again, writing nothing — and no
   other fiber is left to write.  No step can change the outcome: the
   budget would kill exactly this live set.  With no channel (the
   default) no fiber is ever stamped and only the budget ends a run.
   Tids equal positions in [fibers] (both are spawn order). *)
let rec stalled_from spin fibers i =
  i >= Array.length fibers
  || (match (Array.unsafe_get fibers i).state with
     | Done | Crashed _ -> true
     | Not_started _ | Suspended _ ->
         i + 1 < Array.length spin
         && Array.unsafe_get spin (i + 1) = Array.unsafe_get spin 0 + 1)
     && stalled_from spin fibers (i + 1)

let quiescent t fibers = stalled_from t.spin fibers 0

(* The loops test quiescence once every [check_interval] steps, not after
   every step.  Quiescence is permanent once reached, so a late test
   only adds fewer than [check_interval] steps to a hung run, while a
   test on every step would add a compare and a branch to every step of
   every run — measurable against a loop this tight. *)
let check_interval = 64 (* power of two: the test is a mask *)

let[@inline] check_due t ~steps_before = (t.steps - steps_before) land (check_interval - 1) = 0

(* Kill whatever is still suspended (quiescence or budget exhausted), then
   assemble the outcome and record the per-run metric deltas.  Shared by
   every loop so they differ only in how they pick. *)
let finish t ~steps_before fibers =
  let proven = quiescent t fibers in
  let hung = ref [] in
  Array.iter
    (fun f ->
      match f.state with
      | Suspended k ->
          hung := (f.tid, f.name) :: !hung;
          (* Unwind the fiber so its resources are released; we ignore the
             result — the fiber is dead either way. *)
          (try ignore (Effect.Deep.discontinue k Killed) with _ -> ());
          f.state <- Crashed Killed
      | Not_started _ ->
          hung := (f.tid, f.name) :: !hung;
          f.state <- Crashed Killed
      | Done | Crashed _ -> ())
    fibers;
  let finished, failed =
    Array.fold_left
      (fun (fin, fail) f ->
        match f.state with
        | Done -> (f.tid :: fin, fail)
        | Crashed Killed -> (fin, fail)
        | Crashed e -> (fin, (f.tid, f.name, e) :: fail)
        | Not_started _ | Suspended _ -> assert false)
      ([], []) fibers
  in
  t.running <- false;
  if Obs.Metrics.enabled () then begin
    let delta = t.steps - steps_before in
    Obs.Metrics.incr ~by:delta (Lazy.force m_steps_total);
    Obs.Metrics.observe (Lazy.force m_steps_per_run) (float_of_int delta);
    Obs.Metrics.incr ~by:(List.length !hung) (Lazy.force m_hung_fibers);
    if !hung <> [] then
      Obs.Metrics.incr (Lazy.force (if proven then m_quiescent_hangs else m_budget_exhausted))
  end;
  {
    steps = t.steps;
    finished = List.rev finished;
    hung = List.rev !hung;
    failed = List.rev failed;
  }

(* The hot loop.  The runnable set is a maintained index array in spawn
   order: picking is one [Rng.int] draw and one array read, and a fiber
   that finishes or crashes is removed with an order-preserving shift.
   Removal must preserve spawn order — a swap-with-last would keep the
   RNG *stream* identical (the draw bound is the same) but change which
   fiber each drawn index denotes, silently changing every interleaving.
   Shifts cost O(runnable), but there are at most [fiber_count] of them
   per run, so the per-step cost is O(1) amortized where the old loop
   rebuilt and filtered the whole fiber list every step.

   RNG-stream invariant (pinned by test_scheduler's compatibility
   property): [Rng.pick rng rs] is [List.nth rs (Rng.int rng (length rs))],
   so drawing [Rng.int rng n_runnable] and indexing the spawn-ordered
   runnable array consumes the identical stream and picks the identical
   fiber the legacy list-based loop did. *)
let run ?on_step t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let steps_before = t.steps in
  let fibers = Array.of_list (List.rev t.fibers) in
  let runnable = Array.make (max 1 (Array.length fibers)) 0 in
  let n_runnable = ref 0 in
  Array.iteri
    (fun i f ->
      match f.state with
      | Not_started _ | Suspended _ ->
          runnable.(!n_runnable) <- i;
          incr n_runnable
      | Done | Crashed _ -> ())
    fibers;
  let sampling = Obs.Metrics.enabled () in
  let sample_anchor = ref (if sampling then Obs.Clock.now () else 0.) in
  let rec loop () =
    if !n_runnable > 0 && t.steps < t.step_budget then begin
      let i = Rng.int t.rng !n_runnable in
      let f = fibers.(runnable.(i)) in
      t.steps <- t.steps + 1;
      (match on_step with Some g -> g f.tid | None -> ());
      step_fiber f;
      (match f.state with
      | Done | Crashed _ ->
          Array.blit runnable (i + 1) runnable i (!n_runnable - i - 1);
          decr n_runnable
      | Not_started _ | Suspended _ -> ());
      if not (check_due t ~steps_before) then loop ()
      else begin
        if sampling then begin
          let now = Obs.Clock.now () in
          Obs.Metrics.observe (Lazy.force m_step_seconds)
            ((now -. !sample_anchor) /. float_of_int check_interval);
          sample_anchor := now
        end;
        if not (quiescent t fibers) then loop ()
      end
    end
  in
  loop ();
  finish t ~steps_before fibers

(* The legacy loop, kept verbatim as an executable specification: it
   rebuilds the runnable list from scratch every step and picks with the
   list-based [Rng.pick].  [run] must consume the identical RNG stream and
   produce the identical schedule; tests assert it and the hotpath bench
   measures the gap.  Do not optimise this. *)
let run_reference ?on_step t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let steps_before = t.steps in
  let fibers = Array.of_list (List.rev t.fibers) in
  let runnable () =
    Array.to_list fibers
    |> List.filter (fun f ->
           match f.state with Not_started _ | Suspended _ -> true | Done | Crashed _ -> false)
  in
  let rec loop () =
    match runnable () with
    | [] -> ()
    | rs ->
        if t.steps >= t.step_budget then ()
        else begin
          let f = Rng.pick t.rng rs in
          t.steps <- t.steps + 1;
          (match on_step with Some g -> g f.tid | None -> ());
          step_fiber f;
          if not (check_due t ~steps_before && quiescent t fibers) then loop ()
        end
  in
  loop ();
  finish t ~steps_before fibers

(* ------------------------------------------------------------------ *)
(* Partial-order reduction (sleep sets).                               *)
(* ------------------------------------------------------------------ *)

(* POR hooks cross the lib/sched dependency boundary as plain ints: a
   footprint is an opaque int summary of a step's instrumented accesses
   (Runtime.Footprint encodes/decodes it; 0 means "no instrumented op /
   unknown").  The footprint channels are shared flat arrays, not
   closures: most steps execute nothing instrumented, and an indirect
   call per step to learn "nothing happened" is measurable against a
   step loop this tight.  Only the two relational queries stay calls. *)
type por = {
  pending : int array;
      (* [pending.(tid)] — footprint of the op the fiber will execute
         when next resumed, or 0 if unknown (not yet at a preemption
         point).  Written by the recorder, read directly here.  Fibers
         with tids beyond the array are treated as unknown. *)
  step_fp : int array;
      (* One cell: footprint of the op(s) the last step executed, 0 for
         a step that ran no instrumented op.  The scheduler consumes and
         clears it after every step. *)
  independent : int -> int -> bool;
  spin : int -> int -> bool;
      (* [spin executed pending] — the stepped fiber is busy-wait
         retrying the op it just ran (a failed CAS); park it until a
         conflicting access wakes it instead of letting it spin. *)
}

type por_stats = { mutable pruned_picks : int; mutable forced_wakes : int }

(* The pruning loop.  On top of [run]'s maintained runnable index array
   it keeps a per-fiber sleep bit and the last executed footprint:

   - after stepping fiber [p] with executed footprint [fp], every other
     runnable fiber [q] with a *known* pending footprint independent of
     [fp] and [q.tid < p.tid] is put to sleep: running [q] now would
     produce a schedule Mazurkiewicz-equivalent to one that ran [q]
     before [p] (which the ascending-tid order makes the canonical
     representative), so the pick is redundant;
   - any sleeping fiber whose pending op *conflicts* with [fp] is woken —
     the dependency breaks the commutation argument;
   - a fiber whose next op busy-wait retries the op it just executed
     ([por.spin] — a failed CAS) is itself parked: nothing it can
     observe changes until some step conflicts with that footprint, and
     any such step wakes it through the rule above.  Without this a
     spinner burns the whole step budget while the lock holder sleeps —
     the dominant cost of the pre-optimisation POR mode;
   - steps that executed nothing instrumented neither sleep nor wake
     anyone;
   - if every runnable fiber is asleep the whole set is force-woken
     (counted in [forced_wakes]) so the run always terminates.

   The picks suppressed each step are counted in [pruned_picks].  The
   pruning is heuristic, not exhaustive DPOR: uninstrumented state
   (DRAM, sync-policy bookkeeping) rides along outside the independence
   relation, so equality of the found-bug sets is pinned empirically by
   the POR property tests rather than proved.

   Maintenance is allocation-free: the sleep bits, the candidate
   scratch, and a live sleeper count are preallocated arrays/ints sized
   by the fiber count, and the common no-sleeper step skips the
   candidate pass entirely.  The candidate set itself is cached between
   sleep-state changes — sync-heavy campaigns run tens of thousands of
   steps that execute nothing instrumented, and rebuilding an identical
   candidate array every one of them was the dominant POR cost.  A step
   with no footprint makes zero indirect calls: the executed and
   pending footprints arrive through the [por] record's shared arrays,
   so [independent]/[spin] only run on the steps that did something. *)
let run_por ?on_step ~(por : por) t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  let steps_before = t.steps in
  let fibers = Array.of_list (List.rev t.fibers) in
  let n = max 1 (Array.length fibers) in
  let runnable = Array.make n 0 in
  let n_runnable = ref 0 in
  let asleep = Array.make n false in
  let n_asleep = ref 0 in
  let candidates = Array.make n 0 (* positions in [runnable], not fiber ids *) in
  Array.iteri
    (fun i f ->
      match f.state with
      | Not_started _ | Suspended _ ->
          runnable.(!n_runnable) <- i;
          incr n_runnable
      | Done | Crashed _ -> ())
    fibers;
  let stats = { pruned_picks = 0; forced_wakes = 0 } in
  let pending = por.pending in
  let pn = Array.length pending in
  let sfp = por.step_fp in
  (* Candidate cache: [candidates.(0 .. n_cand-1)] are the awake
     positions, valid while [cand_dirty] is clear.  Any sleep, wake, or
     runnable-set change invalidates it; the steps in between — the
     overwhelming majority — reuse it untouched.  With no sleeper the
     rebuilt cache is the identity over [runnable], so the pick path is
     a single [Rng.int] draw plus two array reads either way.

     [pruned_picks] is settled per *span* rather than per step: between
     two rebuilds every pick suppresses the same number of positions
     ([span_pruned]), so the count is one multiply at the next rebuild
     instead of a read-modify-write on every step. *)
  let n_cand = ref 0 in
  let cand_dirty = ref true in
  let span_start = ref t.steps in
  let span_pruned = ref 0 in
  let settle_span () =
    if !span_pruned > 0 then
      stats.pruned_picks <- stats.pruned_picks + ((t.steps - !span_start) * !span_pruned);
    span_start := t.steps
  in
  let rebuild () =
    settle_span ();
    n_cand := 0;
    for k = 0 to !n_runnable - 1 do
      if not asleep.(runnable.(k)) then begin
        candidates.(!n_cand) <- k;
        incr n_cand
      end
    done;
    if !n_cand = 0 then begin
      (* Everyone runnable is asleep: the canonical representative has
         been followed as far as it goes — wake the set and keep
         scheduling rather than deadlock. *)
      stats.forced_wakes <- stats.forced_wakes + 1;
      for k = 0 to !n_runnable - 1 do
        asleep.(runnable.(k)) <- false;
        candidates.(k) <- k
      done;
      n_asleep := 0;
      n_cand := !n_runnable
    end;
    span_pruned := !n_runnable - !n_cand;
    cand_dirty := false
  in
  let sleep i =
    if not asleep.(i) then begin
      asleep.(i) <- true;
      incr n_asleep;
      cand_dirty := true
    end
  in
  let wake i =
    if asleep.(i) then begin
      asleep.(i) <- false;
      decr n_asleep;
      cand_dirty := true
    end
  in
  let rec loop () =
    if !n_runnable > 0 && t.steps < t.step_budget then begin
      if !cand_dirty then rebuild ();
      let j = candidates.(Rng.int t.rng !n_cand) in
      let i = runnable.(j) in
      let f = fibers.(i) in
      t.steps <- t.steps + 1;
      (match on_step with Some g -> g f.tid | None -> ());
      step_fiber f;
      let fp = Array.unsafe_get sfp 0 in
      if fp <> 0 then begin
        Array.unsafe_set sfp 0 0;
        (* A spin retry (the fiber is about to re-execute the op it just
           ran — a failed CAS) changed nothing observable: it reads its
           word and writes nothing.  It must not drive the wake/sleep
           pass — a failed CAS's [rw] footprint conflicts with every
           fellow spinner's pending CAS, so treating it as a real step
           makes parked spinners wake each other in a round-robin
           livelock that burns the whole budget while the lock holder
           sleeps.  Park the spinner and leave everyone else's sleep
           state alone; the word can only change via a conflicting step
           by an awake fiber, which wakes the spinner through the rule
           below. *)
        let spinning =
          match f.state with
          | Not_started _ | Suspended _ ->
              por.spin fp (if f.tid < pn then Array.unsafe_get pending f.tid else 0)
          | Done | Crashed _ -> false
        in
        if spinning then sleep i
        else
          (* Only two transitions exist, so only two cases need the
             (indirect) independence call: an asleep fiber can only be
             woken (on conflict), and an awake fiber can only be slept
             (commuting op, lower tid).  An awake fiber with a higher
             tid cannot change state — skip it without consulting the
             relation at all. *)
          for k = 0 to !n_runnable - 1 do
            let q = runnable.(k) in
            if q <> i then
              if Array.unsafe_get asleep q then begin
                let qt = fibers.(q).tid in
                let pq = if qt < pn then Array.unsafe_get pending qt else 0 in
                if pq <> 0 && not (por.independent fp pq) then wake q
              end
              else
                let qt = fibers.(q).tid in
                if qt < f.tid then begin
                  let pq = if qt < pn then Array.unsafe_get pending qt else 0 in
                  if pq <> 0 && por.independent fp pq then sleep q
                end
          done
      end;
      (match f.state with
      | Done | Crashed _ ->
          wake i;
          (* Order-preserving removal, as in [run]; [j] is the position. *)
          Array.blit runnable (j + 1) runnable j (!n_runnable - j - 1);
          decr n_runnable;
          cand_dirty := true
      | Not_started _ | Suspended _ -> ());
      if not (check_due t ~steps_before && quiescent t fibers) then loop ()
    end
  in
  loop ();
  settle_span ();
  (finish t ~steps_before fibers, stats)

let completed o = o.hung = [] && o.failed = []

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "steps=%d finished=%d hung=[%a] failed=[%a]" o.steps (List.length o.finished)
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    o.hung
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int string))
    (List.map (fun (t, n, _) -> (t, n)) o.failed)
