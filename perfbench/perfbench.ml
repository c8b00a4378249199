(* The repository benchmark: seeded fuzzing sessions, measured end to end
   and per layer.

   A workload is one [Pmrace.Fuzzer.run] session at [workers = 1] with the
   configuration [pmrace fuzz] builds (static pre-pass on, checkpointed
   engine where the target's init is expensive, metrics enabled).  At
   [workers = 1] a session is a pure function of its master seed, so the
   counts it prints repeat exactly.  A run makes two kinds of session:

   - the reference session, at the workload's reference seed (5), where
     the seeded ground truth is known and gated.  It is repeated within
     [--seconds], after one untimed warm-up run, and its timings are
     reported as medians;
   - one held-out session at seed [1000 + --seed], so claims can be
     checked on data no change was tuned on.  Its missed-bug share is
     printed, not gated.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] runs the
   reference session untraced once, then rebuilds it from public calls
   with spans at each layer boundary, replays every campaign, re-validates
   every finding and times the set-up phases on their own; it prints the
   per-layer metrics.  The last line of standard output is one JSON
   object with the keys [correct], [attempted], [failed] and [metrics];
   the command exits 1 when a correctness check fails.

   Usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
            [--spans-out FILE]
   (normally through perfbench/run.py, which builds this executable). *)

open Pmrace

let reference_seed = 5

type workload = {
  w_name : string;
  w_target : string;
  w_campaigns : int;
  w_crash_images : int;
  w_por : bool;
  w_expected : int list;  (** seeded bug ids the reference session must find *)
}

let workloads =
  [
    {
      w_name = "pclht-hunt";
      w_target = "p-clht";
      w_campaigns = 1500;
      w_crash_images = 1;
      w_por = false;
      w_expected = [ 1; 2; 3; 4; 5 ];
    };
    (* Not in BENCHMARK.json: its GC-heavy sessions swing furthest with
       neighbour load on a shared machine, and a third workload would cap
       the run length.  Run it by name on a quieter machine. *)
    {
      w_name = "memcached-images";
      w_target = "memcached-pmem";
      w_campaigns = 1000;
      w_crash_images = 64;
      w_por = false;
      w_expected = [ 9; 10; 11; 12; 13; 14 ];
    };
    {
      w_name = "figure1-por";
      w_target = "figure1";
      w_campaigns = 3000;
      w_crash_images = 1;
      w_por = true;
      w_expected = [ 101; 102 ];
    };
  ]

let config wl (target : Target.t) ~seed ~campaigns =
  Fuzzer.Config.make ~max_campaigns:campaigns ~master_seed:seed ~workers:1
    ~mode:Fuzzer.Mode_pmrace ~use_checkpoint:target.expensive_init ~static_prepass:true
    ~crash_images:wl.w_crash_images ~por:wl.w_por ()

(* ---- clocks and raw-sample statistics ---- *)

let now_ns () = Monotonic_clock.now ()
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let cpu_s () = Unix.((times ()).tms_utime +. (times ()).tms_stime)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile over the raw samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* ---- one untraced session ---- *)

let counter name =
  List.fold_left
    (fun acc (r : Obs.Metrics.reading) ->
      match r.r_value with
      | Obs.Metrics.Counter n when String.equal r.r_name name -> acc + n
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

let hist_sum name =
  List.fold_left
    (fun acc (r : Obs.Metrics.reading) ->
      match r.r_value with
      | Obs.Metrics.Histogram { sum; _ } when String.equal r.r_name name -> acc +. sum
      | _ -> acc)
    0. (Obs.Metrics.snapshot ())

type counts = {
  c_campaigns : int;
  c_groups : string list;  (** unique bug groups, as sorted "kind:write-site" keys *)
  c_alias_bits : int;
  c_alias_pairs : int;  (** achieved (write, read) site pairs *)
  c_last_bug : int option;  (** 0-based campaign that first saw the last bug group *)
  c_steps : int;  (** [sched_steps_total] over the whole [Fuzzer.run] call *)
  c_validations : int;
  c_por : Hub.por_totals option;
}

type measured = {
  session : Fuzzer.session;
  run_wall : float;  (** the whole [Fuzzer.run] call *)
  cpu : float;
  minor_words : float;
  counts : counts;
  found : int list;  (** seeded bug ids found *)
}

let group_key (g : Report.bug_group) =
  let kind = match g.bg_kind with `Inter -> "inter" | `Intra -> "intra" | `Sync -> "sync" in
  kind ^ ":" ^ g.bg_site

let counts_of (s : Fuzzer.session) ~steps ~validations =
  let groups = Report.bug_groups s.report in
  let last_bug =
    List.fold_left
      (fun acc g ->
        match (acc, Artifact.first_campaign s.report g) with
        | None, c | c, None -> c
        | Some a, Some b -> Some (max a b))
      None groups
  in
  {
    c_campaigns = s.campaigns_run;
    c_groups = List.sort compare (List.map group_key groups);
    c_alias_bits = Alias_cov.count s.alias;
    c_alias_pairs = Alias_cov.achieved_site_pairs s.alias;
    c_last_bug = last_bug;
    c_steps = steps;
    c_validations = validations;
    c_por = s.por;
  }

let found_ids target (s : Fuzzer.session) =
  Fuzzer.found_known_bugs s target
  |> List.filter_map (fun ((kb : Target.known_bug), found) -> if found then Some kb.kb_id else None)

let finish_measure target session ~run_wall ~cpu ~minor_words =
  let counts =
    counts_of session ~steps:(counter "sched_steps_total")
      ~validations:(counter "validations_total")
  in
  { session; run_wall; cpu; minor_words; counts; found = found_ids target session }

let measure_session target cfg =
  Obs.Metrics.reset ();
  let m0 = Gc.minor_words () and c0 = cpu_s () and t0 = now_ns () in
  let session = Fuzzer.run target cfg in
  let t1 = now_ns () in
  let cpu = cpu_s () -. c0 and minor_words = Gc.minor_words () -. m0 in
  finish_measure target session ~run_wall:(secs t0 t1) ~cpu ~minor_words

let setup_s m = m.run_wall -. m.session.wall_time
let campaigns_per_s m = float m.session.campaigns_run /. m.session.wall_time

(* A session cut at its commits, in seconds: [seg.(0)] runs from hub
   creation to the first commit, [seg.(c)] from commit [c - 1] to commit
   [c] (campaign [c]'s latency, including the previous campaign's
   validation), and the last element from the last commit to the end. *)
let segments (s : Fuzzer.session) =
  let commits = Array.of_list (List.map (fun (p : Fuzzer.timeline_point) -> p.tp_time) s.timeline) in
  let n = Array.length commits in
  if n = 0 then [| s.wall_time |]
  else
    Array.init (n + 1) (fun i ->
        if i = 0 then commits.(0)
        else if i = n then s.wall_time -. commits.(n - 1)
        else commits.(i) -. commits.(i - 1))

(* What a session leaves for the metrics once its report is dropped, so
   no session's report stays on the heap a later session runs on. *)
type summary = {
  counts : counts;
  found : int list;  (** seeded bug ids found *)
  seg : float array;  (** {!segments} *)
  cpu : float;  (** process CPU seconds of the [Fuzzer.run] call *)
  setup : float;  (** [Fuzzer.run] wall time minus [session.wall_time] *)
  rate : float;  (** campaigns / [session.wall_time] *)
  minor_words : float;
  top_heap_words : int;
}

let summarize (m : measured) =
  {
    counts = m.counts;
    found = m.found;
    seg = segments m.session;
    cpu = m.cpu;
    setup = setup_s m;
    rate = campaigns_per_s m;
    minor_words = m.minor_words;
    top_heap_words = (Gc.quick_stat ()).top_heap_words;
  }

let missed wl found = List.filter (fun id -> not (List.mem id found)) wl.w_expected
let mib words = float (words * (Sys.word_size / 8)) /. 1048576.

(* ---- correctness checks ---- *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let diff_counts ~what (a : counts) (b : counts) =
  let check name eq show x y =
    if not (eq x y) then fail "%s: %s %s <> %s" what name (show x) (show y)
  in
  let opt = function Some c -> string_of_int c | None -> "none" in
  let por = function
    | None -> "off"
    | Some (p : Hub.por_totals) ->
        Printf.sprintf "pruned=%d unique=%d dup=%d" p.pt_pruned p.pt_unique_traces p.pt_dup_traces
  in
  check "campaigns" ( = ) string_of_int a.c_campaigns b.c_campaigns;
  check "bug groups" ( = ) (String.concat ",") a.c_groups b.c_groups;
  check "alias bits" ( = ) string_of_int a.c_alias_bits b.c_alias_bits;
  check "alias site pairs" ( = ) string_of_int a.c_alias_pairs b.c_alias_pairs;
  check "last-bug campaign" ( = ) opt a.c_last_bug b.c_last_bug;
  check "scheduler steps" ( = ) string_of_int a.c_steps b.c_steps;
  check "validations" ( = ) string_of_int a.c_validations b.c_validations;
  check "por totals" ( = ) por a.c_por b.c_por

let check_reference wl found =
  match missed wl found with
  | [] -> ()
  | ids ->
      fail "reference session (seed %d) missed seeded bugs %s" reference_seed
        (String.concat "," (List.map string_of_int ids))

(* ---- output ---- *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

let print_metrics wl title ms =
  Printf.printf "%s %s:\n" wl.w_name title;
  List.iter
    (fun m ->
      Printf.printf "  %-30s %16.6f %-6s %s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    ms

let print_counts wl (s : summary) =
  let c = s.counts in
  Printf.printf "%s deterministic counts (reference seed %d):\n" wl.w_name reference_seed;
  let line k v = Printf.printf "  %-30s %s\n" k v in
  line "campaigns" (string_of_int c.c_campaigns);
  line "campaigns_to_last_bug"
    (match c.c_last_bug with Some b -> string_of_int (b + 1) | None -> "none");
  line "bug_groups" (Printf.sprintf "%d [%s]" (List.length c.c_groups) (String.concat " " c.c_groups));
  line "seeded_bugs_found"
    (Printf.sprintf "%d/%d" (List.length wl.w_expected - List.length (missed wl s.found))
       (List.length wl.w_expected));
  line "alias_bits" (string_of_int c.c_alias_bits);
  line "alias_site_pairs" (string_of_int c.c_alias_pairs);
  line "session.sched_steps" (string_of_int c.c_steps);
  line "session.validations" (string_of_int c.c_validations);
  (match c.c_por with
  | None -> line "por" "off"
  | Some p ->
      line "por.pruned_picks" (string_of_int p.pt_pruned);
      line "por.unique_traces" (string_of_int p.pt_unique_traces);
      line "por.dup_traces" (string_of_int p.pt_dup_traces));
  (* With metrics on, a few allocations in the metrics path depend on
     clock readings, so these two vary by about 1e-6 and 1e-2 between
     runs: measured, not exact. *)
  Printf.printf "  measured, near-exact: session.minor_words %.0f, peak_heap_words %d\n"
    s.minor_words s.top_heap_words

let print_result ~attempted ~failed ms =
  let metrics =
    List.map
      (fun m ->
        if not (Float.is_finite m.value) then fail "metric %s is not a finite number" m.name;
        (m.name, Obs.Json.Obj [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ]))
      ms
  in
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (!failures = []));
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ("metrics", Obs.Json.Obj metrics);
      ]
  in
  print_string (Obs.Json.to_string ~minify:true json);
  print_newline ()

(* ---- the held-out session ---- *)

let heldout wl target ~seed =
  let hseed = 1000 + seed in
  let s = summarize (measure_session target (config wl target ~seed:hseed ~campaigns:wl.w_campaigns)) in
  let missed = List.length (missed wl s.found) and expected = List.length wl.w_expected in
  Printf.printf
    "%s held-out session (seed %d, not gated): missed_bug_frac %.4f (%d/%d missed), \
     campaigns_per_s %.1f, bug groups %d\n"
    wl.w_name hseed
    (float missed /. float expected)
    missed expected s.rate
    (List.length s.counts.c_groups)

(* ---- --trace 0: end-to-end metrics ---- *)

let setups_per_session = 5
let max_cuts_per_session = 40
let min_timed_sessions = 3

(* The timed metrics come from repeated reference sessions.  At
   [workers = 1] they are bit-identical, so their timings differ only by
   what else the machine was running; each timed metric is a median over
   them (percentiles over their pooled raw samples).  They run in this
   process: a fresh process per session adds page-fault and start-up
   costs whose spread under neighbour load swamped the short timings.
   The first session warms the process up and is not timed: starting
   from cold caches and an empty heap, it was the slowest of most runs. *)
let end_to_end wl target ~seed ~seconds =
  let t_start = now_ns () in
  let elapsed () = secs t_start (now_ns ()) in
  let session ~campaigns =
    summarize (measure_session target (config wl target ~seed:reference_seed ~campaigns))
  in
  let first = session ~campaigns:wl.w_campaigns in
  (* What the held-out session, run last, is expected to take. *)
  let heldout_estimate = elapsed () in
  (* Each later session starts from a collected heap, as the first one
     starts from a fresh process. *)
  let run ~campaigns =
    Gc.full_major ();
    session ~campaigns
  in
  print_counts wl first;
  check_reference wl first.found;
  let counts = first.counts and expected = List.length wl.w_expected in
  let last = Option.value ~default:0 counts.c_last_bug in
  let setups = ref [] in
  let timed s =
    setups := s.setup :: !setups;
    s
  in
  (* Set-up alone, several times before each session: the same
     [Fuzzer.run] call with an empty campaign budget. *)
  let setup_only () =
    for _ = 1 to setups_per_session do
      ignore (timed (run ~campaigns:0))
    done
  in
  (* A session with a smaller budget runs exactly the first campaigns of
     the full one, so when the last bug comes early, sessions cut right
     after it sample the time to it again, cheaply: a batch before each
     session, each batch up to a twenty-fifth of the run's time, so the
     samples spread over the run rather than one stretch of it. *)
  let to_last s = Array.fold_left ( +. ) 0. (Array.sub s.seg 0 (last + 1)) in
  let cut_batch =
    min max_cuts_per_session (int_of_float (seconds /. 25. /. (to_last first +. first.setup)))
  in
  let cuts = ref [] in
  let cut_sessions () =
    for _ = 1 to cut_batch do
      let s = timed (run ~campaigns:(last + 1)) in
      if s.counts.c_last_bug <> counts.c_last_bug then
        fail "session cut after campaign %d did not find the last bug group there" (last + 1);
      cuts := to_last s :: !cuts
    done
  in
  (* Set-ups, cut sessions and one full session per round; rounds stop
     while the held-out session still fits in [seconds]. *)
  let rec more acc =
    let t0 = now_ns () in
    setup_only ();
    cut_sessions ();
    let s = timed (run ~campaigns:wl.w_campaigns) in
    diff_counts ~what:"repeated reference session" counts s.counts;
    let acc = s :: acc and round = secs t0 (now_ns ()) in
    if List.length acc >= min_timed_sessions && elapsed () +. round +. heldout_estimate > seconds
    then List.rev acc
    else more acc
  in
  let reps = more [] in
  let nreps = List.length reps in
  let per f = List.map f reps in
  (* Campaign latencies: the segments between consecutive commits. *)
  let lat =
    List.concat_map
      (fun s -> Array.to_list (Array.map (fun x -> x *. 1e3) (Array.sub s.seg 1 (Array.length s.seg - 2))))
      reps
  in
  let nlat = List.length lat in
  let found = float (List.length first.found) in
  let metrics =
    [
      metric "campaigns_per_s" "1/s"
        (median (per (fun s -> s.rate)))
        ~note:(Printf.sprintf "median of %d sessions" nreps);
      metric "bugs_per_cpu_s" "1/s"
        (median (per (fun s -> found /. s.cpu)))
        ~note:(Printf.sprintf "%.0f seeded bugs / CPU s of Fuzzer.run, median of %d" found nreps);
      metric "time_to_last_bug_s" "s"
        (median (per to_last @ !cuts))
        ~note:
          (Printf.sprintf "commit of campaign %d, median of %d sessions + %d cut after it"
             (last + 1) nreps (List.length !cuts));
      metric "campaigns_to_last_bug" "count" (float (last + 1)) ~note:"exact";
      metric "campaign_ms_p50" "ms" (percentile 0.50 lat)
        ~note:(Printf.sprintf "n=%d pooled over %d sessions" nlat nreps);
      metric "campaign_ms_p99" "ms" (percentile 0.99 lat)
        ~note:
          (Printf.sprintf "n=%d, %d beyond p99" nlat
             (nlat - int_of_float (Float.ceil (0.99 *. float nlat))));
      metric "setup_s" "s" (median !setups)
        ~note:(Printf.sprintf "median of %d set-ups spread over the run" (List.length !setups));
      metric "peak_heap_mb" "MB" (mib first.top_heap_words) ~note:"top heap after the first session";
    ]
  in
  print_metrics wl "end-to-end metrics (untraced, reference seed 5)" metrics;
  Printf.printf "  per-session campaigns_per_s: %s\n"
    (String.concat " " (per (fun s -> Printf.sprintf "%.1f" s.rate)));
  let missed0 = List.length (missed wl first.found) in
  Printf.printf "  %-30s %16.6f %-6s (%d/%d seeded bugs missed; also attempted/failed below)\n"
    "missed_bug_frac"
    (float missed0 /. float expected)
    "ratio" missed0 expected;
  heldout wl target ~seed;
  let all = first :: reps in
  let failed = List.fold_left (fun acc s -> acc + List.length (missed wl s.found)) 0 all in
  print_result ~attempted:(expected * List.length all) ~failed metrics

(* ---- --trace 1: the traced session and per-layer metrics ---- *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_req : int;  (** campaign index *)
  sp_parent : int;  (** parent span id, or -1 *)
  sp_t0 : int64;
  mutable sp_t1 : int64;
}

type spans = { mutable rev : span list; mutable next : int }

let span_open sp ~name ~req ~parent t0 =
  let s = { sp_id = sp.next; sp_name = name; sp_req = req; sp_parent = parent; sp_t0 = t0; sp_t1 = t0 } in
  sp.next <- sp.next + 1;
  sp.rev <- s :: sp.rev;
  s

let span_add sp ~name ~req ~parent t0 t1 = (span_open sp ~name ~req ~parent t0).sp_t1 <- t1

let durations sp name =
  List.filter_map
    (fun s -> if String.equal s.sp_name name then Some (secs s.sp_t0 s.sp_t1) else None)
    sp.rev

let write_spans path sp ~origin =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n" s.sp_id
        s.sp_name s.sp_req s.sp_parent (Int64.sub s.sp_t0 origin) (Int64.sub s.sp_t1 origin))
    (List.rev sp.rev);
  close_out oc

(* A sink wrapping [Fuzzer.hub_sink] that records, per campaign, a
   [fuzzer.campaign] span and its children [hub.reserve], [fuzzer.exec]
   (reserve -> commit), [hub.commit] and [fuzzer.post] (commit -> next
   reserve: validation, re-scoring, next-seed selection).  Returns the
   sink and a function closing the last open span. *)
let traced_sink sp hub =
  let base = Fuzzer.hub_sink hub in
  let root = ref None and exec_from = ref 0L and post_from = ref None in
  let close_post t =
    match !post_from with
    | Some (r, from) ->
        span_add sp ~name:"fuzzer.post" ~req:r.sp_req ~parent:r.sp_id from t;
        r.sp_t1 <- t;
        post_from := None
    | None -> ()
  in
  let reserve prov =
    let t0 = now_ns () in
    close_post t0;
    let res = base.Fuzzer.sk_reserve prov in
    let t1 = now_ns () in
    (match res with
    | Some c ->
        let r = span_open sp ~name:"fuzzer.campaign" ~req:c ~parent:(-1) t0 in
        span_add sp ~name:"hub.reserve" ~req:c ~parent:r.sp_id t0 t1;
        root := Some r;
        exec_from := t1
    | None -> ());
    res
  in
  let commit ?trace ~campaign ~delta env ~hung ~hang_info =
    let t0 = now_ns () in
    let r = Option.get !root in
    span_add sp ~name:"fuzzer.exec" ~req:campaign ~parent:r.sp_id !exec_from t0;
    let res = base.sk_commit ?trace ~campaign ~delta env ~hung ~hang_info in
    let t1 = now_ns () in
    span_add sp ~name:"hub.commit" ~req:campaign ~parent:r.sp_id t0 t1;
    post_from := Some (r, t1);
    res
  in
  let finish () = close_post (now_ns ()) in
  ({ base with sk_reserve = reserve; sk_commit = commit }, finish)

(* [Fuzzer.run] at [workers = 1], rebuilt from its public parts so the
   sink can be wrapped. *)
let traced_session sp target (cfg : Fuzzer.config) =
  Obs.Metrics.reset ();
  let t0 = now_ns () in
  let snapshot = if cfg.use_checkpoint then Some (Campaign.prepare_snapshot target) else None in
  let prepass = Analyze.prepass ~analysis:Analysis.Analyzer.default_config target in
  let pairs = prepass.Analysis.Analyzer.r_pairs in
  let hub = Hub.create ~static:pairs ~max_campaigns:cfg.max_campaigns () in
  let whitelist = Whitelist.create (target.Target.whitelist_sites @ cfg.whitelist_extra) in
  Alias_cov.set_possible (Hub.alias hub) (Analysis.Alias_pairs.possible_count pairs);
  Report.set_lint (Hub.report hub) prepass.r_findings;
  let sink, finish = traced_sink sp hub in
  let w =
    Fuzzer.create_worker ?snapshot ~whitelist ~inv_specs:[] ~static_on:true ~cfg ~sink ~widx:0
      target
  in
  Fuzzer.worker_loop w;
  finish ();
  let session =
    Fuzzer.assemble_session ~static:prepass ~whitelist
      ~worker_campaigns:[| Fuzzer.campaigns_done w |] hub target
  in
  let t1 = now_ns () in
  (finish_measure target session ~run_wall:(secs t0 t1) ~cpu:0. ~minor_words:0., snapshot)

type replay = {
  r_steps : int;
  r_hung : int;
  r_hung_steps : int;
  r_minor_words : float;
  r_events : int;
  r_loads : int;
  r_stores : int;
  r_flushes : int;
  r_fences : int;
  r_persisted : int;
  r_touched : float list;
}

(* Replay every recorded campaign through [Campaign.run] on an engine set
   up as a worker's (same snapshot, the coverage delta's handlers bound).
   A marker listener splits the call into [engine.checkout] and
   [sched.run]; a counting listener tallies events by kind.  Metrics are
   off during the replay: with them on, allocation depends slightly on
   clock readings, and the word counts here must repeat exactly. *)
let replay sp target (cfg : Fuzzer.config) ~snapshot (s : Fuzzer.session) =
  Obs.Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled true) @@ fun () ->
  let delta = Hub.fresh_delta () in
  let engine =
    Engine.create ~evict_prob:cfg.evict_prob ~eadr:cfg.eadr
      ~bound:(Array.of_list (Hub.delta_handlers delta))
      ?snapshot ~use_checkpoint:cfg.use_checkpoint target
  in
  let loads = ref 0 and stores = ref 0 and flushes = ref 0 and fences = ref 0 in
  let branches = ref 0 and persisted = ref 0 in
  let count = function
    | Runtime.Env.Ev_load _ -> incr loads
    | Runtime.Env.Ev_store _ | Runtime.Env.Ev_movnt _ -> incr stores
    | Runtime.Env.Ev_clwb _ -> incr flushes
    | Runtime.Env.Ev_fence { persisted = p; _ } ->
        incr fences;
        persisted := !persisted + List.length p
    | Runtime.Env.Ev_branch _ -> incr branches
  in
  let mark = ref 0L in
  let listeners = [ (fun _ -> mark := now_ns ()); (fun env -> Runtime.Env.add_listener env count) ] in
  let steps = ref 0 and hung = ref 0 and hung_steps = ref 0 and words = ref 0. in
  let touched = ref [] in
  for c = 0 to s.campaigns_run - 1 do
    let p = Hashtbl.find s.provenance c in
    let input =
      Campaign.input ~sched_seed:p.p_sched_seed ~policy:p.p_spec ~step_budget:cfg.step_budget
        ~por:cfg.por target p.p_seed
    in
    Hub.reset_delta delta;
    let m0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = Campaign.run ~engine ~listeners input in
    let t1 = now_ns () in
    words := !words +. (Gc.minor_words () -. m0);
    let root = span_open sp ~name:"campaign.run" ~req:c ~parent:(-1) t0 in
    root.sp_t1 <- t1;
    span_add sp ~name:"engine.checkout" ~req:c ~parent:root.sp_id t0 !mark;
    span_add sp ~name:"sched.run" ~req:c ~parent:root.sp_id !mark t1;
    steps := !steps + r.outcome.steps;
    if r.outcome.hung <> [] then begin
      incr hung;
      hung_steps := !hung_steps + r.outcome.steps
    end;
    if Engine.persistent engine then touched := float (Engine.last_reset_touched engine) :: !touched;
    match (r.por, Hashtbl.find_opt s.trace_hashes c) with
    | Some ps, Some h when not (Int64.equal ps.Por.s_trace_hash h) ->
        fail "replay of campaign %d: trace hash differs from the session's" c
    | _ -> ()
  done;
  {
    r_steps = !steps;
    r_hung = !hung;
    r_hung_steps = !hung_steps;
    r_minor_words = !words;
    r_events = !loads + !stores + !flushes + !fences + !branches;
    r_loads = !loads;
    r_stores = !stores;
    r_flushes = !flushes;
    r_fences = !fences;
    r_persisted = !persisted;
    r_touched = (if !touched = [] then [ 0. ] else !touched);
  }

(* Re-validate every recorded finding; a verdict that differs from the
   recorded one is a correctness failure. *)
let revalidate sp target (cfg : Fuzzer.config) (s : Fuzzer.session) =
  let vctx = Post_failure.ctx ~images:cfg.crash_images ~whitelist:s.whitelist target in
  let bugs = ref 0 in
  let one ~req ~what cand recorded =
    let t0 = now_ns () in
    let v = Post_failure.validate vctx cand in
    span_add sp ~name:"post_failure.validate" ~req ~parent:(-1) t0 (now_ns ());
    (match v with Post_failure.Bug _ -> incr bugs | Validated_fp | Whitelisted_fp -> ());
    match recorded with
    | Some r when r <> v ->
        fail "re-validated %s (campaign %d) got %s, recorded %s" what req
          (Format.asprintf "%a" Post_failure.pp_verdict v)
          (Format.asprintf "%a" Post_failure.pp_verdict r)
    | Some _ | None -> ()
  in
  List.iter
    (fun (f : Report.finding) ->
      one ~req:f.found_at ~what:"finding" (Post_failure.Candidate.Inconsistency f.inc) f.verdict)
    (Report.findings s.report);
  List.iter
    (fun (f : Report.sync_finding) ->
      one ~req:f.sync_found_at ~what:"sync finding" (Post_failure.Candidate.Sync f.ev)
        f.sync_verdict)
    (Report.sync_findings s.report);
  !bugs

let timed_runs = 5

let time_median f =
  median
    (List.init timed_runs (fun _ ->
         let t0 = now_ns () in
         ignore (Sys.opaque_identity (f ()));
         secs t0 (now_ns ())))

let per_layer wl target ~seed ~spans_out =
  let cfg = config wl target ~seed:reference_seed ~campaigns:wl.w_campaigns in
  let base = measure_session target cfg in
  let base_sum = summarize base in
  print_counts wl base_sum;
  check_reference wl base.found;
  (* Phase split of the untraced session, from the metric sums. *)
  let phases =
    [
      ("campaign setup", hist_sum "campaign_setup_seconds");
      ("campaign run", hist_sum "campaign_run_seconds");
      ("hub merge", hist_sum "hub_merge_seconds");
      ("validation", hist_sum "validation_seconds");
    ]
  in
  let wall = base.session.wall_time in
  Printf.printf "%s phase split of the untraced session (%.3f s session wall):\n" wl.w_name wall;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %10.4f s %6.2f %%\n" k v (100. *. v /. wall)) phases;
  (* Keep only the untraced session's numbers, so its report does not sit
     on the heap the traced session runs on. *)
  let base_counts = base.counts and base_rate = base_sum.rate in
  let base_missed = List.length (missed wl base.found) in
  let sp = { rev = []; next = 0 } in
  let origin = now_ns () in
  let traced, snapshot = traced_session sp target cfg in
  diff_counts ~what:"traced session vs untraced" base_counts traced.counts;
  let rp = replay sp target cfg ~snapshot traced.session in
  let bug_verdicts = revalidate sp target cfg traced.session in
  let validations = List.length (durations sp "post_failure.validate") in
  let snapshot_s = time_median (fun () -> Campaign.prepare_snapshot target) in
  let prepass_s =
    time_median (fun () -> Analyze.prepass ~analysis:Analysis.Analyzer.default_config target)
  in
  Option.iter (fun path -> write_spans path sp ~origin) spans_out;
  let us name = List.map (fun d -> d *. 1e6) (durations sp name) in
  let ms name = List.map (fun d -> d *. 1e3) (durations sp name) in
  let traced_wall = traced.session.wall_time in
  let share name = sum (durations sp name) /. traced_wall in
  let steps = float rp.r_steps in
  let por f = match traced.counts.c_por with Some p -> float (f p) | None -> 0. in
  let n name = List.length (durations sp name) in
  let metrics =
    [
      metric "sched.steps" "count" steps ~note:"replayed campaigns";
      metric "sched.ns_per_step" "ns" (1e9 *. sum (durations sp "sched.run") /. steps);
      metric "sched.hung_campaigns" "count" (float rp.r_hung);
      metric "sched.hung_step_frac" "ratio" (ratio (float rp.r_hung_steps) steps);
      metric "runtime.minor_words_per_step" "words" (rp.r_minor_words /. steps)
        ~note:(Printf.sprintf "%.0f words over Campaign.run" rp.r_minor_words);
      metric "runtime.events_per_step" "ratio" (float rp.r_events /. steps);
      metric "runtime.loads" "count" (float rp.r_loads);
      metric "runtime.stores" "count" (float rp.r_stores);
      metric "runtime.flushes" "count" (float rp.r_flushes);
      metric "runtime.fences" "count" (float rp.r_fences);
      metric "pmem.reset_touched_words_p50" "words" (percentile 0.5 rp.r_touched)
        ~note:(if cfg.use_checkpoint then "checkpointed" else "fresh init: 0");
      metric "pmem.fence_persisted_words" "count" (float rp.r_persisted);
      metric "engine.checkout_us_p50" "us" (percentile 0.5 (us "engine.checkout"))
        ~note:(Printf.sprintf "n=%d" (n "engine.checkout"));
      metric "engine.checkout_us_p99" "us" (percentile 0.99 (us "engine.checkout"));
      metric "engine.snapshot_s" "s" snapshot_s ~note:(Printf.sprintf "median of %d" timed_runs);
      metric "hub.reserve_us_p50" "us" (percentile 0.5 (us "hub.reserve"))
        ~note:(Printf.sprintf "n=%d" (n "hub.reserve"));
      metric "hub.commit_us_p50" "us" (percentile 0.5 (us "hub.commit"))
        ~note:(Printf.sprintf "n=%d" (n "hub.commit"));
      metric "hub.commit_us_p99" "us" (percentile 0.99 (us "hub.commit"));
      metric "hub.commit_share" "ratio" (share "hub.commit") ~note:"of traced session wall";
      metric "fuzzer.exec_ms_p50" "ms" (percentile 0.5 (ms "fuzzer.exec"))
        ~note:(Printf.sprintf "n=%d" (n "fuzzer.exec"));
      metric "fuzzer.exec_ms_p99" "ms" (percentile 0.99 (ms "fuzzer.exec"));
      metric "fuzzer.post_us_p50" "us" (percentile 0.5 (us "fuzzer.post"))
        ~note:(Printf.sprintf "n=%d" (n "fuzzer.post"));
      metric "fuzzer.post_us_p99" "us" (percentile 0.99 (us "fuzzer.post"));
      metric "fuzzer.post_share" "ratio" (share "fuzzer.post") ~note:"of traced session wall";
      metric "post_failure.validations" "count" (float validations);
      metric "post_failure.validate_ms_p50" "ms" (percentile 0.5 (ms "post_failure.validate"))
        ~note:(Printf.sprintf "n=%d" validations);
      metric "post_failure.validate_ms_p99" "ms" (percentile 0.99 (ms "post_failure.validate"));
      metric "post_failure.bug_ratio" "ratio" (ratio (float bug_verdicts) (float validations));
      metric "por.pruned_picks" "count" (por (fun p -> p.pt_pruned));
      metric "por.unique_traces" "count" (por (fun p -> p.pt_unique_traces));
      metric "por.dup_traces" "count" (por (fun p -> p.pt_dup_traces));
      metric "por.dedup_ratio" "ratio"
        (ratio (por (fun p -> p.pt_dup_traces)) (float traced.session.campaigns_run));
      metric "analyze.prepass_s" "s" prepass_s ~note:(Printf.sprintf "median of %d" timed_runs);
      metric "trace.overhead_ratio" "ratio"
        (campaigns_per_s traced /. base_rate)
        ~note:(Printf.sprintf "traced / untraced campaigns_per_s, base %.1f/s" base_rate);
    ]
  in
  print_metrics wl "per-layer metrics (traced, reference seed 5)" metrics;
  Printf.printf "  replay: %.3f s in Campaign.run over %d campaigns\n"
    (sum (durations sp "campaign.run"))
    traced.session.campaigns_run;
  heldout wl target ~seed;
  print_result ~attempted:(List.length wl.w_expected)
    ~failed:base_missed
    metrics

(* ---- command line ---- *)

let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let spans_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N held-out session seed (run at 1000 + N)");
      ("--seconds", Arg.Set_int seconds, "S how long to repeat the reference session");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.String (fun p -> spans_out := Some p), "FILE where --trace 1 writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun wl -> String.equal wl.w_name !workload) workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun wl -> wl.w_name) workloads));
      exit 2
  | Some wl -> (
      match Workloads.Registry.find wl.w_target with
      | None ->
          Printf.eprintf "perfbench: %s: target %s is not registered\n" wl.w_name wl.w_target;
          exit 2
      | Some target ->
          Obs.Metrics.set_enabled true;
          (match !trace with
          | 0 -> end_to_end wl target ~seed:!seed ~seconds:(float !seconds)
          | 1 -> per_layer wl target ~seed:!seed ~spans_out:!spans_out
          | t ->
              Printf.eprintf "perfbench: --trace must be 0 or 1, not %d\n" t;
              exit 2);
          if !failures <> [] then begin
            List.iter (fun m -> Printf.eprintf "perfbench: %s: %s\n" wl.w_name m) (List.rev !failures);
            exit 1
          end)
