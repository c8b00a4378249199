(** One fuzz campaign: a single concurrent execution of a target with a
    seed, an interleaving policy and a scheduler seed.  Pools start from a
    fresh target initialisation or an in-memory checkpoint (§5); checker
    state is reset after initialisation. *)

module Scheduler = Sched.Scheduler
module Env = Runtime.Env

type policy_spec =
  | Pmrace of { entry : Shared_queue.entry; skip : int }
      (** PM-aware sync-point scheduling on one queue entry *)
  | Delay of { prob : float; max_delay : int }  (** the Delay-Inj baseline *)
  | Random_sched  (** plain preemption at every instrumented operation *)
  | No_preempt

type input = {
  target : Target.t;
  seed : Seed.t;
  sched_seed : int;
  policy : policy_spec;
  snapshot : Pmem.Pool.snapshot option;
  step_budget : int;
  capture_images : bool;
  evict_prob : float;
  eadr : bool;  (** run on an eADR platform (§6.6): flushes unnecessary *)
  por : bool;
      (** run under {!Sched.Scheduler.run_por}: sleep-set pruning plus a
          canonical trace hash.  [false] (the default) leaves the
          schedule — and every RNG draw — bit-identical to before the
          POR layer existed. *)
  por_digest : bool;
      (** [false] short-circuits the Foata-layer/trace-hash digesting
          while keeping the sleep-set schedule unchanged — for consumers
          (replay) that re-run a POR campaign for its schedule only.
          [true] (the default) digests as before. *)
}

val input :
  ?sched_seed:int ->
  ?policy:policy_spec ->
  ?snapshot:Pmem.Pool.snapshot ->
  ?step_budget:int ->
  ?capture_images:bool ->
  ?evict_prob:float ->
  ?eadr:bool ->
  ?por:bool ->
  ?por_digest:bool ->
  Target.t ->
  Seed.t ->
  input

type result = {
  env : Env.t;  (** checkers carry the campaign's findings *)
  outcome : Scheduler.outcome;
  sync : Sync_policy.t option;
  hung : bool;  (** hung fibers (at quiescence or budget) or a stuck spin lock *)
  por : Por.stats option;
      (** trace hash + pruning counters, when the input asked for POR *)
}

val prepare_snapshot : Target.t -> Pmem.Pool.snapshot
(** Initialise a pool once and capture the in-memory checkpoint reused by
    subsequent campaigns (alias of {!Engine.prepare_snapshot}). *)

val run : ?engine:Engine.t -> ?listeners:(Env.t -> unit) list -> input -> result
(** Execute the campaign.  [listeners] (e.g. {!Alias_cov.attach} partially
    applied) are attached to the environment before the run as transient
    listeners.  With [engine], the environment comes from
    {!Engine.checkout} and the engine's configuration governs — the
    input's [snapshot], [capture_images], [evict_prob] and [eadr] fields
    are ignored; without it, a fresh environment is constructed from the
    input exactly as before. *)
