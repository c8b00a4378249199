(* PM alias pair coverage, branch coverage, and the shared-access queue. *)

module Alias = Pmrace.Alias_cov
module Branch = Pmrace.Branch_cov
module Queue = Pmrace.Shared_queue
module Env = Runtime.Env
module Mem = Runtime.Mem
module Tval = Runtime.Tval
module Instr = Runtime.Instr

let acc i d t = { Alias.a_instr = i; a_dirty = d; a_tid = t }

let test_alias_pairs () =
  let c = Alias.create () in
  Alcotest.(check bool) "new pair sets a bit" true
    (Alias.observe c ~prev:(acc 1 false 0) ~cur:(acc 2 true 1));
  Alcotest.(check bool) "same pair again: no new bit" false
    (Alias.observe c ~prev:(acc 1 false 0) ~cur:(acc 2 true 1));
  Alcotest.(check bool) "same tid ignored" false
    (Alias.observe c ~prev:(acc 1 false 0) ~cur:(acc 2 true 0));
  Alcotest.(check bool) "persistency state distinguishes" true
    (Alias.observe c ~prev:(acc 1 true 0) ~cur:(acc 2 true 1));
  Alcotest.(check int) "count" 2 (Alias.count c)

let test_alias_listener () =
  let c = Alias.create () in
  let env = Env.create ~pool_words:256 () in
  Alias.attach c env;
  let t0 = Env.ctx env ~tid:0 and t1 = Env.ctx env ~tid:1 in
  let i = Instr.site "cov:x" in
  Mem.store t0 ~instr:i (Tval.of_int 100) Tval.one;
  ignore (Mem.load t1 ~instr:i (Tval.of_int 100));
  Alcotest.(check bool) "cross-thread pair recorded" true (Alias.count c >= 1);
  let before = Alias.count c in
  ignore (Mem.load t1 ~instr:i (Tval.of_int 50));
  Alcotest.(check int) "first access to an address: no pair" before (Alias.count c)

(* Tracker entries carry the generation they were written in (21 bits),
   so after 2^21 - 1 resets the generation wraps back to 1: the arrays
   must be cleared then, or a first-campaign access would come back to
   life and pair with the next one. *)
let test_tracker_generation_wrap () =
  let c = Alias.create () and tr = Alias.tracker () in
  let i = Instr.of_int 0 in
  Alias.handler c tr (Env.Ev_store { instr = i; tid = 0; addr = 5 });
  for _ = 1 to (1 lsl 21) - 1 do
    Alias.reset_tracker tr
  done;
  Alias.handler c tr (Env.Ev_load { instr = i; tid = 1; addr = 5; dirty = true });
  Alcotest.(check int) "no pair with a pre-wrap access" 0 (Alias.count c);
  Alcotest.(check int) "no site pair with a pre-wrap writer" 0 (Alias.achieved_site_pairs c);
  Alias.handler c tr (Env.Ev_store { instr = i; tid = 0; addr = 5 });
  Alcotest.(check int) "accesses after the wrap still pair" 1 (Alias.count c)

let test_branch_cov () =
  let b = Branch.create () in
  let i1 = Instr.site "cov:b1" and i2 = Instr.site "cov:b2" in
  Alcotest.(check bool) "new" true (Branch.observe b i1);
  Alcotest.(check bool) "repeat" false (Branch.observe b i1);
  Alcotest.(check bool) "covered" true (Branch.covered b i1);
  Alcotest.(check bool) "not covered" false (Branch.covered b i2);
  Alcotest.(check int) "count" 1 (Branch.count b)

let test_shared_queue () =
  let q = Queue.create () in
  let iw = Instr.site "cov:qw" and ir = Instr.site "cov:qr" in
  (* Address 10: loaded and stored by different threads -> shared. *)
  Queue.observe_store q ~addr:10 ~instr:iw ~tid:0;
  Queue.observe_load q ~addr:10 ~instr:ir ~tid:1;
  (* Address 20: single-thread only -> not shared. *)
  Queue.observe_store q ~addr:20 ~instr:iw ~tid:0;
  Queue.observe_load q ~addr:20 ~instr:ir ~tid:0;
  (* Address 30: stored only -> not shared. *)
  Queue.observe_store q ~addr:30 ~instr:iw ~tid:0;
  Queue.observe_store q ~addr:30 ~instr:iw ~tid:1;
  match Queue.entries q with
  | [ e ] ->
      Alcotest.(check int) "shared address" 10 e.Queue.addr;
      Alcotest.(check int) "loads" 1 (List.length e.loads);
      Alcotest.(check int) "stores" 1 (List.length e.stores)
  | es -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length es))

let test_queue_priority () =
  let q = Queue.create () in
  let iw = Instr.site "cov:qw" and ir = Instr.site "cov:qr" in
  let touch addr n =
    for _ = 1 to n do
      Queue.observe_store q ~addr ~instr:iw ~tid:0;
      Queue.observe_load q ~addr ~instr:ir ~tid:1
    done
  in
  touch 10 2;
  touch 20 9;
  touch 30 5;
  let order = List.map (fun e -> e.Queue.addr) (Queue.entries q) in
  Alcotest.(check (list int)) "hot addresses first" [ 20; 30; 10 ] order

(* The codec round-trips, and a wire address outside the slot range is an
   error rather than an allocation. *)
let test_queue_codec () =
  let q = Queue.create () in
  let iw = Instr.site "cov:qw" and ir = Instr.site "cov:qr" in
  Queue.observe_store q ~addr:700 ~instr:iw ~tid:0;
  Queue.observe_load q ~addr:700 ~instr:ir ~tid:1;
  Queue.observe_load q ~addr:3 ~instr:ir ~tid:(-1);
  (match Queue.of_json (Queue.to_json q) with
  | Ok q' ->
      Alcotest.(check bool) "round trip" true (Queue.to_json q' = Queue.to_json q);
      Alcotest.(check int) "tracked" 2 (Queue.tracked_addresses q')
  | Error e -> Alcotest.fail e);
  let record addr =
    Obs.Json.(
      List
        [
          Obj
            [
              ("addr", Int addr);
              ("loads", List []);
              ("stores", List []);
              ("load_tids", List []);
              ("store_tids", List []);
              ("hits", Int 1);
            ];
        ])
  in
  List.iter
    (fun addr ->
      match Queue.of_json (record addr) with
      | Ok _ -> Alcotest.failf "address %d accepted" addr
      | Error _ -> ())
    [ -1; 1 lsl 20; max_int ]

let prop_alias_deterministic =
  QCheck.Test.make ~name:"alias: same event stream, same coverage" ~count:50
    QCheck.(small_list (triple (int_bound 30) (int_bound 3) bool))
    (fun events ->
      let run () =
        let c = Alias.create () in
        let last = Hashtbl.create 8 in
        List.iter
          (fun (i, t, d) ->
            let cur = acc i d t in
            (match Hashtbl.find_opt last 0 with
            | Some prev -> ignore (Alias.observe c ~prev ~cur)
            | None -> ());
            Hashtbl.replace last 0 cur)
          events;
        Alias.count c
      in
      run () = run ())

(* The flat per-word handlers against their Hashtbl-keyed specifications
   (Coverage_spec), over random event streams with resets between them.
   Addresses run past the flat arrays' 512-word growth steps, tids
   include the init thread's -1, and instruction ids are drawn from sites
   already registered (no new registrations, which would shift site ids
   under later goldens). *)
let event_gen =
  QCheck.Gen.(
    map
      (fun (kind, (near, far, wide), tid, (instr, dirty)) ->
        let addr = if wide then far else near in
        let instr = Instr.of_int (instr mod Instr.count ()) in
        match kind with
        | 0 | 1 -> Env.Ev_load { instr; tid; addr; dirty }
        | 2 -> Env.Ev_store { instr; tid; addr }
        | 3 -> Env.Ev_movnt { instr; tid; addr }
        | 4 -> Env.Ev_clwb { instr; tid; addr; dirty_words = 1 }
        | 5 -> Env.Ev_fence { instr; tid; persisted = [] }
        | _ -> Env.Ev_branch { instr; tid })
      (quad (int_bound 6)
         (triple (int_bound 15) (int_bound 5000) (map (fun n -> n = 0) (int_bound 4)))
         (int_range (-1) 3)
         (pair (int_bound 11) bool)))

let prop_flat_matches_spec =
  QCheck.Test.make ~name:"coverage: flat handlers match the Hashtbl spec" ~count:200
    (QCheck.make QCheck.Gen.(small_list (list_size (int_bound 80) event_gen)))
    (fun streams ->
      let module S = Coverage_spec in
      (* A small bitmap keeps the per-stream hex comparison cheap. *)
      let alias = Alias.create ~size_log:10 () and tracker = Alias.tracker () in
      let queue = Queue.create () and acc = Queue.create () in
      let s_alias = S.Alias.create ~size_log:10 () and s_queue = S.Queue.create () and s_acc = S.Queue.create () in
      let bits j =
        match Option.bind (Obs.Json.member "bits" j) Obs.Json.to_str with
        | Some b -> b
        | None -> Alcotest.fail "no bits in Alias_cov.to_json"
      in
      let same_queue what q sq =
        if Queue.entries q <> S.Queue.entries sq then Alcotest.failf "%s: entries differ" what;
        if Queue.to_json q <> S.Queue.to_json sq then Alcotest.failf "%s: to_json differs" what;
        if Queue.tracked_addresses q <> S.Queue.tracked_addresses sq then
          Alcotest.failf "%s: tracked addresses differ" what
      in
      List.iter
        (fun events ->
          List.iter
            (fun ev ->
              Alias.handler alias tracker ev;
              Queue.handler queue ev;
              S.Alias.handler s_alias ev;
              S.Queue.handler s_queue ev)
            events;
          if Alias.count alias <> S.Alias.count s_alias then Alcotest.fail "alias count differs";
          if Alias.site_pairs alias <> S.Alias.site_pairs s_alias then
            Alcotest.fail "alias site pairs differ";
          if bits (Alias.to_json alias) <> S.Alias.bits_hex s_alias then
            Alcotest.fail "alias bitmap differs";
          same_queue "delta" queue s_queue;
          (* Merge into a queue that also observes directly, so merged-in
             and directly observed records share its slots. *)
          Queue.merge_into ~src:queue acc;
          S.Queue.merge_into ~src:s_queue s_acc;
          List.iter
            (fun ev ->
              Queue.handler acc ev;
              S.Queue.handler s_acc ev)
            events;
          same_queue "accumulated" acc s_acc;
          Alias.clear alias;
          Alias.reset_tracker tracker;
          Queue.clear queue;
          S.Alias.reset s_alias;
          S.Queue.clear s_queue)
        streams;
      true)

let suite =
  [
    Alcotest.test_case "alias pair bitmap" `Quick test_alias_pairs;
    Alcotest.test_case "alias listener" `Quick test_alias_listener;
    Alcotest.test_case "alias tracker: generation wrap" `Quick test_tracker_generation_wrap;
    Alcotest.test_case "branch coverage" `Quick test_branch_cov;
    Alcotest.test_case "shared queue detects sharing" `Quick test_shared_queue;
    Alcotest.test_case "shared queue priority" `Quick test_queue_priority;
    Alcotest.test_case "shared queue codec: round trip, address range" `Quick test_queue_codec;
    QCheck_alcotest.to_alcotest prop_alias_deterministic;
    QCheck_alcotest.to_alcotest prop_flat_matches_spec;
  ]
