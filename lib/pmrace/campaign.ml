(* One fuzz campaign: a single concurrent execution of a target with a
   seed, an interleaving policy, and a scheduler seed.

   The pool starts either from a fresh (expensive) target initialisation or
   from an in-memory checkpoint of an initialised pool (§5); checker state
   is reset after initialisation so that results only reflect the fuzzed
   execution.  Every campaign begins with an empty (freshly initialised)
   pool, as §4.5 prescribes. *)

module Rng = Sched.Rng
module Scheduler = Sched.Scheduler
module Env = Runtime.Env

type policy_spec =
  | Pmrace of { entry : Shared_queue.entry; skip : int }
  | Delay of { prob : float; max_delay : int }
  | Random_sched (* plain preemption at every instrumented operation *)
  | No_preempt

type input = {
  target : Target.t;
  seed : Seed.t;
  sched_seed : int;
  policy : policy_spec;
  snapshot : Pmem.Pool.snapshot option; (* in-memory checkpoint *)
  step_budget : int;
  capture_images : bool;
  evict_prob : float;
  eadr : bool; (* run on an eADR platform (§6.6) *)
  por : bool; (* sleep-set pruning + trace hashing (Scheduler.run_por) *)
  por_digest : bool;
      (* false = no trace-dedup consumer (replay): run the sleep sets but
         short-circuit the Foata-layer/hash digesting entirely *)
}

let input ?(sched_seed = 1) ?(policy = Random_sched) ?snapshot ?(step_budget = 60_000)
    ?(capture_images = true) ?(evict_prob = 0.) ?(eadr = false) ?(por = false)
    ?(por_digest = true) target seed =
  {
    target;
    seed;
    sched_seed;
    policy;
    snapshot;
    step_budget;
    capture_images;
    evict_prob;
    eadr;
    por;
    por_digest;
  }

type result = {
  env : Env.t;
  outcome : Scheduler.outcome;
  sync : Sync_policy.t option;
  hung : bool; (* hung fibers (quiescence or budget) or a Stuck spin lock *)
  por : Por.stats option; (* pruning provenance when the input asked for POR *)
}

(* Initialise a pool once and capture the checkpoint the fast path reuses. *)
let prepare_snapshot = Engine.prepare_snapshot

let setup_env (i : input) =
  let env =
    Env.create ~capture_images:i.capture_images ~evict_prob:i.evict_prob ~eadr:i.eadr
      ~pool_words:i.target.pool_words ()
  in
  (match i.snapshot with
  | Some snap -> Pmem.Pool.restore env.pool snap
  | None ->
      i.target.init env;
      Pmem.Pool.quiesce env.pool);
  Env.reset_checkers ~capture_images:i.capture_images env;
  (* Annotations describe the static pool layout, so they apply to fresh
     and checkpoint-restored pools alike. *)
  i.target.annotate env;
  env

let m_latency = lazy (Obs.Metrics.histogram "campaign_latency_seconds")

(* Phase split of the latency above: setup (environment construction or
   engine reset) vs the fuzzed execution itself.  The CLI footer derives
   setup-bound vs run-bound execs/sec from these sums. *)
let m_setup = lazy (Obs.Metrics.histogram "campaign_setup_seconds")
let m_run = lazy (Obs.Metrics.histogram "campaign_run_seconds")

let run ?engine ?(listeners = []) (i : input) =
  Obs.Metrics.time (Lazy.force m_latency) @@ fun () ->
  let env =
    Obs.Metrics.time (Lazy.force m_setup) @@ fun () ->
    match engine with Some e -> Engine.checkout e | None -> setup_env i
  in
  List.iter (fun attach -> attach env) listeners;
  Obs.Metrics.time (Lazy.force m_run) @@ fun () ->
  let rng = Rng.create i.sched_seed in
  let policy_rng = Rng.split rng in
  let nthreads = Array.length (Seed.threads i.seed) in
  let sync, policy =
    match i.policy with
    | Pmrace { entry; skip } ->
        let s = Sync_policy.create ~rng:policy_rng ~nthreads ~skip entry in
        (Some s, Sync_policy.policy s)
    | Delay { prob; max_delay } ->
        (None, Delay_policy.policy (Delay_policy.create ~prob ~max_delay ~rng:policy_rng ()))
    | Random_sched -> (None, Env.preempt_policy)
    | No_preempt -> (None, Env.null_policy)
  in
  (* The POR harness interposes on whatever policy the spec built; with
     [por = false] nothing here runs and the policy (and every RNG draw)
     is exactly the historical one. *)
  let harness =
    if not i.por then None
    else begin
      let h =
        match engine with
        | Some e -> Engine.por_harness e ~nthreads
        | None -> Por.create ~pool_words:i.target.pool_words ~nthreads ()
      in
      if not i.por_digest then Por.set_digest h false;
      Some h
    end
  in
  let policy = match harness with Some h -> Por.wrap h policy | None -> policy in
  Env.set_policy env policy;
  (* The spin channel lets the scheduler end a campaign at quiescence
     instead of running a proven hang out to the step budget. *)
  let spin = Env.spin_channel env ~fibers:nthreads in
  let sched = Scheduler.create ~step_budget:i.step_budget ~spin ~rng () in
  Array.iteri
    (fun ti ops ->
      let name = Printf.sprintf "worker-%d" ti in
      ignore
        (Scheduler.spawn sched ~name (fun () ->
             let ctx = Env.ctx env ~tid:ti in
             Array.iter (fun op -> i.target.run_op ctx op) ops)))
    (Seed.threads i.seed);
  let outcome, por =
    match harness with
    | None -> (Scheduler.run sched, None)
    | Some h ->
        let outcome, ss = Scheduler.run_por ~por:(Por.hooks h) sched in
        (outcome, Some (Por.stats h ss))
  in
  let stuck =
    List.exists (fun (_, _, e) -> match e with Runtime.Mem.Stuck _ -> true | _ -> false)
      outcome.failed
  in
  let hung = outcome.hung <> [] || stuck in
  { env; outcome; sync; hung; por }
