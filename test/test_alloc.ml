(* Allocation gate for the instrumented-op path.

   Fixed programs run under the plain preemption policy with a worker's
   bound coverage-delta handlers installed (alias tracker, branch map,
   shared-access queue), metrics off.  The minor words allocated by the
   scheduler run are pinned exactly: the op path from [Runtime.Mem]
   through [Env.emit] to the handlers is deterministic in what it
   allocates, so any new per-op allocation moves these numbers.  When a
   change lowers them on purpose, re-pin them and say why.

   No new instruction sites are registered here (that would shift site
   ids under later goldens): the programs use already-registered ids. *)

module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr
module Hub = Pmrace.Hub
module Scheduler = Sched.Scheduler

(* Run [body] on [fibers] fibers over a fresh pool prepared by [setup],
   with the delta's handlers bound; return the scheduler's outcome and the
   minor words allocated by the run.  The delta is shared across calls so its
   tracker and queue slots have already grown when a measured run starts.
   The scheduler gets the environment's spin channel, as a campaign's
   does, so the measured runs include its quiescence checks and the two
   op-path pins below also hold them to zero words. *)
let run_program delta ~fibers ~setup body =
  let env = Env.create ~pool_words:256 () in
  setup (Env.ctx env ~tid:(-1));
  Hub.reset_delta delta;
  Env.install_bound env (Array.of_list (Hub.delta_handlers delta));
  Env.set_policy env Env.preempt_policy;
  let sched =
    Scheduler.create ~spin:(Env.spin_channel env ~fibers) ~rng:(Sched.Rng.create 11) ()
  in
  for tid = 0 to fibers - 1 do
    ignore (Scheduler.spawn sched ~name:"f" (fun () -> body (Env.ctx env ~tid)))
  done;
  let w0 = Gc.minor_words () in
  let out = Scheduler.run sched in
  let words = Gc.minor_words () -. w0 in
  (out, int_of_float words)

let measure ~fibers ~setup body =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled was)
    (fun () ->
      let delta = Hub.fresh_delta () in
      ignore (run_program delta ~fibers ~setup body);
      run_program delta ~fibers ~setup body)

let check_pinned name ~steps ~words ((out : Scheduler.outcome), words') =
  let steps' = out.steps in
  Alcotest.(check int) (name ^ ": steps") steps steps';
  Alcotest.(check int)
    (Printf.sprintf "%s: minor words (%.2f per step)" name (float words' /. float steps'))
    words words'

(* Two fibers spin on a held, clean lock word: every attempt is a failed
   CAS (a load event, no store). *)
let test_spin_cas () =
  let i = Instr.of_int 0 and lock = Tval.of_int 64 in
  let setup ctx =
    Mem.store ctx ~instr:i lock Tval.one;
    Mem.persist ctx ~instr:i lock
  in
  let body ctx =
    for _ = 1 to 500 do
      ignore (Mem.cas ctx ~instr:i lock ~expect:Tval.zero ~value:Tval.one)
    done
  in
  check_pinned "clean-word spin CAS" ~steps:1002 ~words:23123 (measure ~fibers:2 ~setup body)

(* Three fibers each store, load, flush and fence words of one shared
   line, so loads see other threads' dirty data. *)
let test_op_mix () =
  let i = Instr.of_int 0 and j = Instr.of_int 1 in
  let body ctx =
    let tid = ctx.Env.tid in
    for k = 1 to 100 do
      let a = Tval.of_int (8 + ((tid + k) mod 8)) in
      Mem.store ctx ~instr:i a (Tval.of_int k);
      ignore (Mem.load ctx ~instr:j (Tval.of_int (8 + (k mod 8))));
      Mem.clwb ctx ~instr:i a;
      Mem.sfence ctx ~instr:j
    done
  in
  check_pinned "load/store/clwb/sfence mix" ~steps:1203 ~words:53811
    (measure ~fibers:3 ~setup:ignore body)

(* Fiber 0 takes a PM lock and returns without unlocking it; fibers 1 and
   2 spin on that lock.  Once both have failed a CAS since the last write,
   the run is proven hung and ends at the next check (every 64 steps)
   instead of burning the budget.  Fibers 1 and 2 do a few loads first,
   so fiber 0 wins the lock. *)
let test_leaked_lock () =
  let i = Instr.of_int 0 and lock = Tval.of_int 64 in
  let body ctx =
    if ctx.Env.tid = 0 then Mem.spin_lock ctx ~instr:i lock
    else begin
      for _ = 1 to 6 do
        ignore (Mem.load ctx ~instr:i (Tval.of_int 8))
      done;
      Mem.spin_lock ctx ~instr:i lock;
      Mem.unlock ctx ~instr:i lock
    end
  in
  let ((out : Scheduler.outcome), _) as measured = measure ~fibers:3 ~setup:ignore body in
  Alcotest.(check (list int)) "hung tids" [ 1; 2 ] (List.map fst out.hung);
  Alcotest.(check (list int)) "finished tids" [ 0 ] out.finished;
  check_pinned "leaked lock, quiescent end" ~steps:64 ~words:3190 measured

let suite =
  [
    Alcotest.test_case "pinned words: clean-word spin CAS" `Quick test_spin_cas;
    Alcotest.test_case "pinned words: load/store/clwb/sfence mix" `Quick test_op_mix;
    Alcotest.test_case "pinned words: leaked lock ends at quiescence" `Quick test_leaked_lock;
  ]
