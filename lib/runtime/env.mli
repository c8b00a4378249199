(** Execution environment: one per fuzz campaign.

    Binds the PM pool, the checkers, the volatile DRAM store, the shadow
    taint memory, the interleaving policy (before/after hooks invoked at
    every instrumented operation) and the event listeners feeding the
    coverage metrics. *)

type point_kind = P_load | P_store | P_movnt | P_clwb | P_fence | P_cas
(** The kind of instrumented operation at a preemption point. *)

type event =
  | Ev_load of { instr : Instr.t; tid : int; addr : int; dirty : bool }
  | Ev_store of { instr : Instr.t; tid : int; addr : int }
  | Ev_movnt of { instr : Instr.t; tid : int; addr : int }
  | Ev_clwb of { instr : Instr.t; tid : int; addr : int; dirty_words : int }
      (** [dirty_words] is the number of dirty words in the flushed line
          {e before} the flush — 0 means the flush was redundant *)
  | Ev_fence of { instr : Instr.t; tid : int; persisted : int list }
  | Ev_branch of { instr : Instr.t; tid : int }

type shadow
(** The shadow taint memory; read and written only through {!mem_taint},
    {!set_mem_taint} and the resets. *)

type spin
(** The PM write generation and the per-fiber spin stamps; read and
    written only through {!note_pm_write}, {!stamp_spin}, {!clear_spin}
    and {!spin_channel}. *)

type t = {
  pool : Pmem.Pool.t;
  mutable checkers : Checkers.t;
  dram : Dram.t;
  shadow : shadow;  (** taint per word, see {!mem_taint} *)
  mutable spin : spin;  (** the quiescence evidence, see {!spin_channel} *)
  mutable policy : policy;
  mutable listeners : (event -> unit) list;
  mutable bound : (event -> unit) array;
      (** pre-bound listeners: installed once per worker, dispatched before
          the transient [listeners], survive {!reset} *)
  evict_seed : int;
  mutable evict_rng : Sched.Rng.t;
  mutable evict_prob : float;
}

and ctx = { env : t; tid : int }
(** A thread's view of the environment. *)

and policy = {
  before : ctx -> point_kind -> Instr.t -> int -> unit;
  after : ctx -> point_kind -> Instr.t -> int -> unit;
}
(** Interleaving policy hooks, called with the preemption point unboxed:
    what is about to execute (or just executed), its site, and its word
    ([-1] for fences).  They may call {!Sched.Scheduler.yield}. *)

val null_policy : policy
(** No preemption — used for single-threaded init and recovery code. *)

val preempt_policy : policy
(** Yield before every instrumented operation (plain random scheduling). *)

val create :
  ?capture_images:bool ->
  ?evict_prob:float ->
  ?evict_seed:int ->
  ?eadr:bool ->
  pool_words:int ->
  unit ->
  t
(** Fresh environment with a zeroed pool.  [evict_prob] enables random
    silent cache-line eviction after stores; [eadr] puts the cache
    hierarchy in the persistent domain (§6.6). *)

val of_image : ?capture_images:bool -> Pmem.Pool.image -> t
(** The post-failure world: pool booted from a crash image; DRAM, taint and
    checker state start fresh. *)

val ctx : t -> tid:int -> ctx
val set_policy : t -> policy -> unit

val add_listener : t -> (event -> unit) -> unit
(** Attach a transient listener (cleared by {!reset}); for per-campaign or
    per-trace hooks. *)

val install_bound : t -> (event -> unit) array -> unit
(** Install the permanent listener array.  Bound listeners run on every
    event, before the transient list, and survive {!reset} — workers
    install their coverage-delta handlers once instead of rebuilding
    closure lists per campaign. *)

val emit : t -> event -> unit
val mem_taint : t -> int -> Taint.t
(** Shadow taint of a word ({!Taint.empty} if never tainted since the last
    reset). *)

val set_mem_taint : t -> int -> Taint.t -> unit

(** {2 Quiescence evidence}

    A campaign whose every live fiber spins on a held lock can never
    progress.  These calls collect the evidence that proves it;
    {!Sched.Scheduler.create}'s [spin] channel reads it. *)

val pm_gen : t -> int
(** The PM write generation: how many stores, movnt stores and
    successful CASes this environment has executed (plus one per
    {!spin_channel}). *)

val note_pm_write : t -> unit
(** Bump the generation.  Every write to a pool word's value must call
    this; {!Mem} does, for every store, movnt and successful CAS. *)

val stamp_spin : ctx -> gen:int -> unit
(** The fiber failed a spin-lock CAS that read the pool at generation
    [gen] (read {e before} the attempt: hooks may yield between the read
    and the return).  While no write follows, its retries fail too. *)

val clear_spin : ctx -> unit
(** The fiber acquired its lock: it is not spinning. *)

val spin_channel : t -> fibers:int -> int array
(** The channel for a scheduler run over tids [0 .. fibers-1]: cell [0]
    is the generation, cell [1 + tid] the tid's stamp, and a fiber is
    proven stuck while its stamp equals generation + 1.  Retires every
    stamp left by an earlier run. *)

(** {2 Sync annotations and resets} *)

val annotate_sync : t -> name:string -> addr:int -> len:int -> init:int64 -> unit

val reset_checkers : ?capture_images:bool -> t -> unit
(** Discard checker state accumulated so far (e.g. during pool
    initialisation) while keeping sync-variable annotations. *)

val reset : ?capture_images:bool -> t -> unit
(** Return a reused environment to its just-created state: fresh checkers
    ({e without} sync annotations — re-annotate as for a fresh env),
    cleared DRAM and taint shadow, null policy, no transient listeners, and
    the eviction RNG reseeded from its original seed.  The pool and the
    pre-bound listener array are untouched: reset the pool separately with
    {!Pmem.Pool.reset_to_snapshot}.  This is the persistent-mode engine's
    per-campaign reset path. *)
