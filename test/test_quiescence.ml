(* Hang detection by quiescence, checked against a budget-only oracle.

   The oracle is the same scheduler loop run with an empty spin channel:
   no fiber is ever proven stuck, so only the step budget ends a hung run
   — the behaviour before quiescence detection.  The rule must not change
   what a run computes, only how many steps it takes to report a hang:
   on random small lock programs, both runs must agree on the finished,
   hung and failed fibers, on the volatile and durable pool images, and on
   the sync policy's persisted state, and the rule's event stream must be
   a prefix of the oracle's.

   No instruction sites are registered here (that would shift site ids
   under the coverage goldens): the programs use already-registered ids. *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Scheduler = Sched.Scheduler
module Rng = Sched.Rng
module Sync = Pmrace.Sync_policy
module Por = Pmrace.Por

let pool_words = 256
let data_words = 4

(* Lock [k] sits alone on its own cache line; data words share one. *)
let lock_word k = 64 + (k * Pmem.Cacheline.words_per_line)
let data_word k = 128 + k

type step =
  | Section of { lock : int; stores : (int * int) list; leak : bool }
      (** spin_lock, store to data words, unlock unless [leak] *)
  | Store of { word : int; value : int }
      (** a plain store to any word, lock words included: storing [0]
          releases a lock its owner leaked *)
  | Load of int

type policy = Random_sched | Pmrace of { entry : int; skip : int }

type program = {
  locks : int;
  fibers : step list array;
  policy : policy;
  por : bool;
  sched_seed : int;
}

(* Every word a program can name: locks first, then data. *)
let word p k = if k < p.locks then lock_word k else data_word (k - p.locks)

let run_step p ctx =
  let i = Instr.of_int 0 and j = Instr.of_int 1 in
  function
  | Section { lock; stores; leak } ->
      let l = Tval.of_int (lock_word lock) in
      Mem.spin_lock ctx ~instr:i l;
      List.iter
        (fun (w, v) -> Mem.store ctx ~instr:j (Tval.of_int (data_word w)) (Tval.of_int v))
        stores;
      if not leak then Mem.unlock ctx ~instr:i l
  | Store { word = w; value } -> Mem.store ctx ~instr:j (Tval.of_int (word p w)) (Tval.of_int value)
  | Load w -> ignore (Mem.load ctx ~instr:j (Tval.of_int (word p w)))

let budget = 6_000

type observed = {
  outcome : Scheduler.outcome;
  volatile : int64 array;
  durable : int64 array;
  events : Env.event list;
  sync : (int * bool) option;  (** [next_skip ~previous:0], [triggered] *)
}

(* Run [p] once.  [rule = false] is the oracle: an empty spin channel. *)
let run ~rule p =
  let env = Env.create ~pool_words () in
  let events = ref [] in
  Env.add_listener env (fun ev -> events := ev :: !events);
  let nthreads = Array.length p.fibers in
  let sync, base =
    match p.policy with
    | Random_sched -> (None, Env.preempt_policy)
    | Pmrace { entry; skip } ->
        let entry = { Pmrace.Shared_queue.addr = word p entry; loads = []; stores = []; hits = 1 } in
        let s = Sync.create ~rng:(Rng.create (p.sched_seed + 1)) ~nthreads ~skip entry in
        (Some s, Sync.policy s)
  in
  let harness = if p.por then Some (Por.create ~pool_words ~nthreads ()) else None in
  Env.set_policy env (match harness with Some h -> Por.wrap h base | None -> base);
  let spin = if rule then Env.spin_channel env ~fibers:nthreads else [||] in
  let sched = Scheduler.create ~step_budget:budget ~spin ~rng:(Rng.create p.sched_seed) () in
  Array.iteri
    (fun tid steps ->
      ignore
        (Scheduler.spawn sched ~name:(string_of_int tid) (fun () ->
             let ctx = Env.ctx env ~tid in
             List.iter (run_step p ctx) steps)))
    p.fibers;
  let outcome =
    match harness with
    | None -> Scheduler.run sched
    | Some h -> fst (Scheduler.run_por ~por:(Por.hooks h) sched)
  in
  let image = Pmem.Pool.crash_image env.pool in
  {
    outcome;
    volatile = Array.init pool_words (Pmem.Pool.peek env.pool);
    durable = Array.init pool_words (Pmem.Pool.image_word image);
    events = List.rev !events;
    sync = Option.map (fun s -> (Sync.next_skip s ~previous:0, Sync.triggered s)) sync;
  }

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let fibers_of (o : Scheduler.outcome) =
  ( o.finished,
    List.map fst o.hung,
    List.map (fun (t, _, e) -> (t, Printexc.to_string e)) o.failed )

let gen_program =
  let open QCheck.Gen in
  let* locks = int_range 1 3 in
  let words = locks + data_words in
  let section =
    let* lock = int_bound (locks - 1) in
    let* stores = list_size (int_bound 2) (pair (int_bound (data_words - 1)) (int_range 1 9)) in
    let+ leak = map (fun k -> k = 0) (int_bound 2) in
    Section { lock; stores; leak }
  in
  let step =
    frequency
      [
        (4, section);
        (1, map2 (fun word value -> Store { word; value }) (int_bound (words - 1)) (int_bound 2));
        (1, map (fun w -> Load w) (int_bound (words - 1)));
      ]
  in
  let* n = int_range 2 3 in
  let* fibers = array_repeat n (list_size (int_range 1 3) step) in
  let* policy =
    frequency
      [
        (1, return Random_sched);
        ( 1,
          map2 (fun entry skip -> Pmrace { entry; skip }) (int_bound (words - 1)) (int_bound 3) );
      ]
  in
  let* por = bool in
  let+ sched_seed = int_bound 10_000 in
  { locks; fibers; policy; por; sched_seed }

let print_program p =
  let step = function
    | Section { lock; stores; leak } ->
        Printf.sprintf "lock%d{%s}%s" lock
          (String.concat ";" (List.map (fun (w, v) -> Printf.sprintf "d%d:=%d" w v) stores))
          (if leak then "leak" else "")
    | Store { word; value } -> Printf.sprintf "w%d:=%d" word value
    | Load w -> Printf.sprintf "load w%d" w
  in
  Printf.sprintf "locks=%d %s policy=%s por=%b seed=%d" p.locks
    (String.concat " | "
       (Array.to_list (Array.map (fun s -> String.concat ", " (List.map step s)) p.fibers)))
    (match p.policy with
    | Random_sched -> "random"
    | Pmrace { entry; skip } -> Printf.sprintf "pmrace(w%d, skip %d)" entry skip)
    p.por p.sched_seed

let prop_rule_matches_budget_oracle =
  QCheck.Test.make ~name:"quiescence: same result as the budget-only oracle, in <= steps"
    ~count:150
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let r = run ~rule:true p and o = run ~rule:false p in
      fibers_of r.outcome = fibers_of o.outcome
      && r.volatile = o.volatile && r.durable = o.durable
      && is_prefix r.events o.events
      && r.sync = o.sync
      && r.outcome.steps <= o.outcome.steps)

let counter name =
  List.fold_left
    (fun acc (r : Obs.Metrics.reading) ->
      match r.r_value with
      | Obs.Metrics.Counter n when String.equal r.r_name name -> acc + n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* The rule must also fire: a lock leaked by a finished fiber hangs its
   spinners, and the run ends long before the budget with the hung set
   the oracle reports at the budget.  Each hung run is counted once, by
   how it ended.  Covers both loops. *)
let test_leak_ends_early () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  List.iter
    (fun por ->
      let p =
        {
          locks = 1;
          fibers =
            [|
              [ Section { lock = 0; stores = [ (0, 1) ]; leak = true } ];
              [ Load 1; Load 1; Load 1; Section { lock = 0; stores = []; leak = false } ];
              [ Load 2; Load 2; Load 2; Section { lock = 0; stores = []; leak = false } ];
            |];
          policy = Random_sched;
          por;
          sched_seed = 7;
        }
      in
      let q0 = counter "sched_quiescent_hangs_total"
      and b0 = counter "sched_budget_exhausted_total" in
      let r = run ~rule:true p in
      let q1 = counter "sched_quiescent_hangs_total" in
      let o = run ~rule:false p in
      let what = if por then "run_por" else "run" in
      Alcotest.(check (pair int int))
        (what ^ ": counted once each (quiescent, budget)")
        (1, 1)
        (q1 - q0, counter "sched_budget_exhausted_total" - b0);
      Alcotest.(check int) (what ^ ": oracle counts no quiescent hang") q1
        (counter "sched_quiescent_hangs_total");
      Alcotest.(check (list int)) (what ^ ": hung spinners") [ 1; 2 ] (List.map fst r.outcome.hung);
      Alcotest.(check (list int)) (what ^ ": oracle agrees") [ 1; 2 ] (List.map fst o.outcome.hung);
      Alcotest.(check int) (what ^ ": oracle runs the budget out") budget o.outcome.steps;
      Alcotest.(check bool) (what ^ ": rule ends early") true (r.outcome.steps < 100))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "leaked lock ends the run early" `Quick test_leak_ends_early;
    QCheck_alcotest.to_alcotest prop_rule_matches_budget_oracle;
  ]
