(* Translation fast-path tests: set-associative TLB behaviour, walk-
   and covers-cache invalidation on the EPT, equivalence of cached and
   uncached translation, and the memoized bulk charge models. *)

open Covirt_hw

let k4 = Addr.page_size_4k
let m2 = Addr.page_size_2m
let mib = Covirt_sim.Units.mib

let make_tlb () =
  Tlb.create ~model:Cost_model.default ~rng:(Covirt_sim.Rng.create ~seed:7)

let test_geometry () =
  let tlb = make_tlb () in
  let sets, ways = Tlb.geometry tlb Addr.Page_4k in
  Alcotest.(check int) "4K capacity" Cost_model.default.Cost_model.dtlb_entries_4k
    (sets * ways);
  Alcotest.(check bool) "sets is a power of two" true (sets land (sets - 1) = 0)

let test_set_conflict_eviction () =
  let tlb = make_tlb () in
  let sets, ways = Tlb.geometry tlb Addr.Page_4k in
  (* Fill one set: vpns congruent mod [sets] all index the same set. *)
  let conflicting = List.init ways (fun i -> i * sets) in
  List.iter (fun vpn -> Tlb.install tlb (vpn * k4) ~page_size:Addr.Page_4k)
    conflicting;
  Alcotest.(check int) "set full" ways (Tlb.entry_count tlb);
  (* Touch the oldest entry so it becomes most-recently-used ... *)
  Alcotest.(check bool) "touch hit" true (Tlb.lookup tlb 0 <> None);
  (* ... then overflow the set: the victim must be the stalest way
     (vpn [sets], installed second), never the touched one. *)
  Tlb.install tlb (ways * sets * k4) ~page_size:Addr.Page_4k;
  Alcotest.(check int) "still full, one evicted" ways (Tlb.entry_count tlb);
  Alcotest.(check bool) "MRU survived" true (Tlb.lookup tlb 0 <> None);
  Alcotest.(check bool) "stalest evicted" true
    (Tlb.lookup tlb (sets * k4) = None);
  Alcotest.(check bool) "newcomer present" true
    (Tlb.lookup tlb (ways * sets * k4) <> None)

let test_install_refreshes_existing () =
  let tlb = make_tlb () in
  Tlb.install tlb (5 * k4) ~page_size:Addr.Page_4k;
  Tlb.install tlb (5 * k4) ~page_size:Addr.Page_4k;
  Alcotest.(check int) "no duplicate slot" 1 (Tlb.entry_count tlb)

let test_flush_range_precision () =
  let tlb = make_tlb () in
  Tlb.install tlb (5 * k4) ~page_size:Addr.Page_4k;
  Tlb.install tlb (6 * k4) ~page_size:Addr.Page_4k;
  Tlb.install tlb m2 ~page_size:Addr.Page_2m;
  (* One-page flush: only the exact page goes. *)
  Tlb.flush_range tlb (Region.make ~base:(6 * k4) ~len:k4);
  Alcotest.(check bool) "vpn 5 kept" true (Tlb.lookup tlb (5 * k4) <> None);
  Alcotest.(check bool) "vpn 6 flushed" true (Tlb.lookup tlb (6 * k4) = None);
  Alcotest.(check bool) "2M page kept" true (Tlb.lookup tlb (m2 + 0x40) <> None);
  (* A flush overlapping the 2M page's tail catches it even though the
     region starts mid-page. *)
  Tlb.flush_range tlb (Region.make ~base:(m2 + (17 * k4)) ~len:k4);
  Alcotest.(check bool) "2M page flushed by interior overlap" true
    (Tlb.lookup tlb (m2 + 0x40) = None);
  Alcotest.(check bool) "vpn 5 still kept" true (Tlb.lookup tlb (5 * k4) <> None)

let test_flush_range_wide () =
  let tlb = make_tlb () in
  let sets, _ = Tlb.geometry tlb Addr.Page_4k in
  (* Spread entries across every set, then flush a region wider than
     the set count: everything inside goes, everything outside stays. *)
  List.iter (fun i -> Tlb.install tlb (i * k4) ~page_size:Addr.Page_4k)
    (List.init sets Fun.id);
  Tlb.install tlb (4 * sets * k4) ~page_size:Addr.Page_4k;
  Tlb.flush_range tlb (Region.make ~base:0 ~len:(2 * sets * k4));
  Alcotest.(check int) "only the outsider survives" 1 (Tlb.entry_count tlb);
  Alcotest.(check bool) "outsider intact" true
    (Tlb.lookup tlb (4 * sets * k4) <> None)

(* ------------------------------------------------------------------ *)

let test_walk_cache_invalidation () =
  let ept = Ept.create () in
  Ept.map_region ept (Region.make ~base:0 ~len:m2);
  Alcotest.(check bool) "mapped" true
    (Result.is_ok (Ept.translate ept 0x1000 ~access:`Read));
  let hits0, _ = Ept.walk_cache_stats ept in
  Alcotest.(check bool) "second translate hits the cache" true
    (Result.is_ok (Ept.translate ept 0x1800 ~access:`Read)
    && fst (Ept.walk_cache_stats ept) > hits0);
  Ept.unmap_region ept (Region.make ~base:0 ~len:m2);
  (match Ept.translate ept 0x1000 ~access:`Read with
  | Error v -> Alcotest.(check bool) "unmapped" true (v.Ept.reason = `Not_mapped)
  | Ok _ -> Alcotest.fail "stale walk cache served an unmapped page");
  Ept.map_region ept (Region.make ~base:0 ~len:m2);
  Alcotest.(check bool) "remap visible" true
    (Result.is_ok (Ept.translate ept 0x1000 ~access:`Write))

let test_covers_memo_invalidation () =
  let ept = Ept.create () in
  Ept.map_region ept (Region.make ~base:0 ~len:m2);
  Alcotest.(check bool) "covered" true (Ept.covers ept ~base:0 ~len:m2);
  Alcotest.(check bool) "covered (memo)" true (Ept.covers ept ~base:0 ~len:m2);
  Ept.unmap_region ept (Region.make ~base:0 ~len:(16 * k4));
  Alcotest.(check bool) "hole visible despite memo" false
    (Ept.covers ept ~base:0 ~len:m2)

(* Property: with the walk cache on, every translate in a random
   map/unmap/translate interleaving answers exactly as the uncached
   reference does — including probes of stale windows right after the
   mutation that invalidated them.  Regions are drawn at 4K grain
   (2M cap) or at 2M grain (2M or 1G cap, reaching past 3G, so one
   region can span several page directories); probes step one grain
   at a time with a varying in-page offset. *)
let gen_ops =
  QCheck2.Gen.(
    let* grain, max_page =
      oneofl
        [ (k4, Addr.Page_2m); (m2, Addr.Page_2m); (m2, Addr.Page_1g) ]
    in
    let+ ops =
      list_size (int_range 1 25)
        (triple (oneofl [ `Map; `Unmap; `Probe ]) (int_range 0 1600)
           (int_range 1 600))
    in
    (grain, max_page, ops))

let print_ops (grain, _, ops) =
  String.concat " "
    (List.map
       (fun (op, page, pages) ->
         Printf.sprintf "%s(%d,%d)"
           (match op with `Map -> "map" | `Unmap -> "unmap" | `Probe -> "probe")
           (page * grain) (pages * grain))
       ops)

let prop_cached_equals_uncached =
  Covirt_test_util.Helpers.qtest ~count:80 "cached translate = uncached"
    ~print:print_ops gen_ops
    (fun (grain, max_page, ops) ->
      let cached = Ept.create ~max_page () in
      let plain = Ept.create ~max_page ~walk_cache:false () in
      List.for_all
        (fun (op, page, pages) ->
          let r = Region.make ~base:(page * grain) ~len:(pages * grain) in
          match op with
          | `Map ->
              Ept.map_region cached r;
              Ept.map_region plain r;
              true
          | `Unmap ->
              Ept.unmap_region cached r;
              Ept.unmap_region plain r;
              true
          | `Probe ->
              List.for_all
                (fun i ->
                  let addr = ((page + i) * grain) + (i * k4 mod grain) in
                  Ept.translate cached addr ~access:`Read
                  = Ept.translate plain addr ~access:`Read)
                (List.init 80 Fun.id))
        ops)

(* ------------------------------------------------------------------ *)
(* The walk cache's hit/miss sequence against a pure direct-mapped
   model: 1024 slots keyed by the 2M window ([gpa lsr 21]) in slot
   [key land 1023], every slot emptied when the table's generation has
   moved since the previous lookup.  Addresses sit in 16 MiB bands
   64 MiB apart, repeated every 1 GiB up to 8 GiB, so every chunk of
   slots is used; windows 2 GiB apart share a slot, windows 1 GiB
   apart must not.  Regions come on a 4K or 2M grain, so PT-backed windows
   are in the mix.  This pins the hit/miss counts behind [ept.walk.*]
   and coverage codes 0-4. *)

let gen_walk_ops =
  QCheck2.Gen.(
    let span = 16 * mib in
    let anchored grain =
      let* gib = int_range 0 7
      and* band = int_range 0 15
      and* off = int_range 0 ((span / grain) - 1) in
      return ((gib * Addr.page_size_1g) + (band * 64 * mib) + (off * grain))
    in
    let* grain = oneofl [ k4; m2 ] in
    let region =
      let* base = anchored grain and* n = int_range 1 (span / 2 / grain) in
      return (Region.make ~base ~len:(n * grain))
    in
    list_size (int_range 1 120)
      (frequency
         [
           (1, map (fun r -> `Map r) region);
           (1, map (fun r -> `Unmap r) region);
           (6, map (fun a -> `Translate a) (anchored k4));
         ]))

let print_walk_ops ops =
  String.concat " "
    (List.map
       (function
         | `Map r -> Format.asprintf "map %a" Region.pp r
         | `Unmap r -> Format.asprintf "unmap %a" Region.pp r
         | `Translate a -> Printf.sprintf "tr %#x" a)
       ops)

let prop_walk_cache_model =
  Covirt_test_util.Helpers.qtest ~count:150 "walk cache = direct-mapped model"
    ~print:print_walk_ops gen_walk_ops (fun ops ->
      let ept = Ept.create () in
      let keys = Array.make 1024 (-1) in
      let gen = ref (Ept.generation ept) and hits = ref 0 and misses = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | `Map r -> Ept.map_region ept r
          | `Unmap r -> Ept.unmap_region ept r
          | `Translate addr ->
              ignore (Ept.translate_code ept addr ~access:`Read);
              if Ept.generation ept <> !gen then begin
                Array.fill keys 0 1024 (-1);
                gen := Ept.generation ept
              end;
              let key = addr lsr 21 in
              let s = key land 1023 in
              if keys.(s) = key then incr hits
              else begin
                incr misses;
                keys.(s) <- key
              end);
          Ept.walk_cache_stats ept = (!hits, !misses))
        ops)

(* ------------------------------------------------------------------ *)
(* [map_region]/[unmap_region] against a pure model: the leaf set as a
   sorted list of (base, page size, perms).  A mutation splits every
   leaf that straddles the region one level down (recursively), drops
   the leaves inside it and, for a map, adds the greedy aligned chunks
   of the region.  Entry writes are predicted alongside: 512 per split
   and one per removed or installed leaf. *)

let g1 = Addr.page_size_1g

let greedy_chunks ~max_page region =
  let cap = Addr.bytes_of_page_size max_page in
  let lim = Region.limit region in
  let rec go addr acc =
    if addr >= lim then List.rev acc
    else
      let fits size = cap >= size && addr mod size = 0 && lim - addr >= size in
      let ps =
        if fits g1 then Addr.Page_1g
        else if fits m2 then Addr.Page_2m
        else Addr.Page_4k
      in
      go (addr + Addr.bytes_of_page_size ps) ((addr, ps) :: acc)
  in
  go region.Region.base []

let smaller = function
  | Addr.Page_1g -> Addr.Page_2m
  | Addr.Page_2m -> Addr.Page_4k
  | Addr.Page_4k -> invalid_arg "smaller: 4K leaves never straddle"

(* Leaves outside [region] after splitting, plus the writes spent. *)
let rec carve region (base, ps, perms) (kept, writes) =
  let len = Addr.bytes_of_page_size ps in
  let leaf = Region.make ~base ~len in
  if not (Region.overlaps leaf region) then ((base, ps, perms) :: kept, writes)
  else if Region.contains_range region ~base ~len then (kept, writes + 1)
  else
    let child = smaller ps in
    let cb = Addr.bytes_of_page_size child in
    List.fold_left
      (fun acc i -> carve region (base + (i * cb), child, perms) acc)
      (kept, writes + 512)
      (List.init 512 Fun.id)

let model_step ~max_page (leaves, writes) op =
  let clear region =
    List.fold_left (fun acc l -> carve region l acc) ([], writes) leaves
  in
  let leaves, writes =
    match op with
    | `Unmap region -> clear region
    | `Map (perms, region) ->
        let kept, writes = clear region in
        let chunks = greedy_chunks ~max_page region in
        ( List.map (fun (b, ps) -> (b, ps, perms)) chunks @ kept,
          writes + List.length chunks )
  in
  (List.sort (fun (a, _, _) (b, _, _) -> compare a b) leaves, writes)

(* Regions near the 1G boundaries at 1G/2G/3G: a base on a 4K, 2M or
   1G grain up to [span] either side of the boundary, and a length on
   its own grain.  The 4K cap keeps to a 16 MiB band so leaf counts
   stay small. *)
let gen_model_region ~max_page =
  QCheck2.Gen.(
    let big = max_page <> Addr.Page_4k in
    let span = if big then 3 * g1 else 16 * mib in
    let grain = if big then oneofl [ k4; m2; g1 ] else oneofl [ k4; 64 * k4 ] in
    let* anchor = int_range 1 3 and* bg = grain and* lg = grain in
    let* off = int_range (-(span / bg)) (span / bg)
    and* n = int_range 1 (span / lg) in
    let base = max 0 ((anchor * g1) + (off * bg)) in
    return (Region.make ~base ~len:(n * lg)))

let gen_model_case =
  QCheck2.Gen.(
    let* max_page = oneofl [ Addr.Page_1g; Addr.Page_2m; Addr.Page_4k ] in
    let op =
      let* region = gen_model_region ~max_page in
      oneof
        [
          return (`Map (Ept.rwx, region));
          return (`Map (Ept.ro, region));
          return (`Unmap region);
        ]
    in
    let+ ops = list_size (int_range 1 6) op in
    (max_page, ops))

let print_model_case (max_page, ops) =
  Format.asprintf "cap %a: %s" Addr.pp_page_size max_page
    (String.concat " "
       (List.map
          (function
            | `Map (p, r) ->
                Format.asprintf "map%s %a" (if p = Ept.ro then "-ro" else "")
                  Region.pp r
            | `Unmap r -> Format.asprintf "unmap %a" Region.pp r)
          ops))

let prop_map_matches_model =
  Covirt_test_util.Helpers.qtest ~count:150 "map_region = greedy-chunk model"
    ~print:print_model_case gen_model_case
    (fun (max_page, ops) ->
      let ept = Ept.create ~max_page () in
      let leaves, writes =
        List.fold_left
          (fun st op ->
            (match op with
            | `Map (perms, r) -> Ept.map_region ept ~perms r
            | `Unmap r -> Ept.unmap_region ept r);
            model_step ~max_page st op)
          ([], 0) ops
      in
      let actual =
        Ept.fold_leaves ept ~init:[] ~f:(fun acc ~base ~page_size ~perms ->
            (base, page_size, perms) :: acc)
        |> List.rev
      in
      let count ps =
        List.length (List.filter (fun (_, p, _) -> p = ps) leaves)
      in
      let union =
        Region.Set.of_list
          (List.map
             (fun (base, ps, _) ->
               Region.make ~base ~len:(Addr.bytes_of_page_size ps))
             leaves)
      in
      actual = leaves
      && Ept.leaf_counts ept
         = (count Addr.Page_4k, count Addr.Page_2m, count Addr.Page_1g)
      && Ept.entry_writes ept = writes
      && Region.Set.equal (Ept.regions ept) union)

(* ------------------------------------------------------------------ *)

let make_machine () =
  Machine.create ~zones:1 ~cores_per_zone:1 ~mem_per_zone:(64 * mib)
    ~host_reserved_per_zone:(16 * mib) ()

let test_charge_memo_identical () =
  let m = make_machine () in
  let cpu = Machine.cpu m 0 in
  let charge () =
    let t0 = Cpu.rdtsc cpu in
    Machine.charge_random m cpu ~ops:5000 ~base:(32 * mib)
      ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m;
    Cpu.rdtsc cpu - t0
  in
  let first = charge () in
  let second = charge () in
  Alcotest.(check int) "memoized charge is bit-identical" first second;
  let hits, misses = Charge_memo.stats m.Machine.charge_memo in
  Alcotest.(check bool) "memo hit on repeat" true (hits >= 1 && misses >= 1)

let test_charge_memo_invalidation () =
  let m = make_machine () in
  let cpu = Machine.cpu m 0 in
  let stream () =
    Machine.charge_stream m cpu ~base:(32 * mib) ~bytes:(4 * mib) ~sharers:1
      ~page_size:Addr.Page_2m
  in
  stream ();
  stream ();
  let _, misses_settled = Charge_memo.stats m.Machine.charge_memo in
  (* Background pressure changes the cost inputs: the memo must not
     serve the pre-pressure figure. *)
  Machine.set_background_streamers m ~zone:0 2;
  let t0 = Cpu.rdtsc cpu in
  stream ();
  let with_pressure = Cpu.rdtsc cpu - t0 in
  let _, misses_after = Charge_memo.stats m.Machine.charge_memo in
  Alcotest.(check bool) "new key after pressure change" true
    (misses_after > misses_settled);
  let t1 = Cpu.rdtsc cpu in
  stream ();
  let with_pressure' = Cpu.rdtsc cpu - t1 in
  Alcotest.(check int) "stable under pressure" with_pressure with_pressure'

(* ------------------------------------------------------------------ *)
(* The zero-GC hot-path contract (DESIGN.md §13): warm TLB lookups,
   warm EPT translations and memoized bulk charges allocate exactly
   zero minor words — with observability off and on, and inside fleet
   shards at any domain count. *)

(* Minor words allocated by [reps] calls of [f], after a warmup that
   fills caches/memos and forces lazy metric cells.  [Gc.minor_words]
   boxes its own float result after sampling, so the [before] sample's
   box lands inside the window; the no-op calibration subtracts it,
   making "exactly zero" assertable. *)
let minor_words_of f reps =
  for _ = 1 to 128 do f () done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to reps do f () done;
  let after = Gc.minor_words () in
  after -. before

let noop () = ()

(* Exact-zero claims hold only under the native compiler; bytecode
   boxes float temporaries the optimizer keeps in registers. *)
let native = Sys.backend_type = Sys.Native

let alloc_words f =
  let reps = 5000 in
  let calib = minor_words_of noop reps in
  minor_words_of f reps -. calib

let check_zero_alloc name f =
  if native then Alcotest.(check (float 0.0)) name 0.0 (alloc_words f)

let with_obs f =
  Covirt_obs.Metrics.enable ();
  Fun.protect ~finally:Covirt_obs.Metrics.disable f

let make_warm_tlb () =
  let tlb = make_tlb () in
  let sets, ways = Tlb.geometry tlb Addr.Page_4k in
  let n = sets * ways in
  for i = 0 to n - 1 do
    Tlb.install tlb (i * k4) ~page_size:Addr.Page_4k
  done;
  (tlb, n)

let test_tlb_lookup_zero_alloc () =
  let tlb, n = make_warm_tlb () in
  let i = ref 0 in
  check_zero_alloc "warm Tlb.lookup allocates nothing" (fun () ->
      incr i;
      ignore (Tlb.lookup tlb ((!i land (n - 1)) * k4)));
  check_zero_alloc "Tlb.lookup_hit allocates nothing" (fun () ->
      incr i;
      ignore (Tlb.lookup_hit tlb ((!i land (n - 1)) * k4)));
  check_zero_alloc "Tlb.lookup miss allocates nothing" (fun () ->
      incr i;
      ignore (Tlb.lookup tlb ((n + (!i land 1023)) * k4)))

let test_tlb_lookup_zero_alloc_obs_on () =
  with_obs (fun () ->
      let tlb, n = make_warm_tlb () in
      let i = ref 0 in
      check_zero_alloc "warm Tlb.lookup, metrics recording" (fun () ->
          incr i;
          ignore (Tlb.lookup tlb ((!i land (n - 1)) * k4)));
      check_zero_alloc "Tlb.lookup miss, metrics recording" (fun () ->
          incr i;
          ignore (Tlb.lookup tlb ((n + (!i land 1023)) * k4))))

let make_warm_ept () =
  let len = 8 * mib in
  let ept = Ept.create ~max_page:Addr.Page_4k () in
  Ept.map_region ept (Region.make ~base:0 ~len);
  for p = 0 to (len / k4) - 1 do
    ignore (Ept.translate_code ept (p * k4) ~access:`Read)
  done;
  (ept, len)

let test_ept_translate_zero_alloc () =
  let ept, len = make_warm_ept () in
  let i = ref 0 in
  check_zero_alloc "warm Ept.translate_code allocates nothing" (fun () ->
      incr i;
      ignore
        (Ept.translate_code ept ((!i * k4 + 8) land (len - 1)) ~access:`Read))

let test_ept_translate_zero_alloc_obs_on () =
  with_obs (fun () ->
      let ept, len = make_warm_ept () in
      let i = ref 0 in
      check_zero_alloc "warm Ept.translate_code, metrics recording"
        (fun () ->
          incr i;
          ignore
            (Ept.translate_code ept
               ((!i * k4 + 8) land (len - 1))
               ~access:`Read)))

let test_charge_zero_alloc () =
  let m = make_machine () in
  let cpu = Machine.cpu m 0 in
  check_zero_alloc "memoized charge_random allocates nothing" (fun () ->
      Machine.charge_random m cpu ~ops:100 ~base:(32 * mib)
        ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m);
  check_zero_alloc "memoized charge_stream allocates nothing" (fun () ->
      Machine.charge_stream m cpu ~base:(32 * mib) ~bytes:(4 * mib)
        ~sharers:1 ~page_size:Addr.Page_2m)

let test_charge_zero_alloc_obs_on () =
  with_obs (fun () ->
      let m = make_machine () in
      let cpu = Machine.cpu m 0 in
      check_zero_alloc "memoized charge_random, metrics recording"
        (fun () ->
          Machine.charge_random m cpu ~ops:100 ~base:(32 * mib)
            ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m))

(* The same contract must hold inside fleet shards, whatever the
   domain placement: each shard builds its own machine stack and
   measures its own warm path in its own domain. *)
let test_fleet_sharded_zero_alloc () =
  List.iter
    (fun domains ->
      let words =
        Covirt_fleet.Fleet.map ~domains ~seed:99 ~shards:4
          (fun ~shard_seed ~index ->
            ignore shard_seed;
            ignore index;
            let m = make_machine () in
            let cpu = Machine.cpu m 0 in
            let tlb, n = make_warm_tlb () in
            let i = ref 0 in
            let work () =
              incr i;
              ignore (Tlb.lookup tlb ((!i land (n - 1)) * k4));
              Machine.charge_random m cpu ~ops:100 ~base:(32 * mib)
                ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m
            in
            alloc_words work)
      in
      if native then
        Array.iteri
          (fun s w ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "shard %d at domains:%d allocates nothing" s
                 domains)
              0.0 w)
          words)
    [ 1; 2; 7 ]

(* Construction cost: a fresh table allocates no walk-cache or radix
   slot storage up front (both come in 64-slot parts on first fill),
   and Kitten's direct map of a 7092 MiB node — 6 1G leaves and 474 2M
   leaves in one 1G window — installs the 2M run with one descent and
   one shared leaf value. *)
let minor_words_per_call f =
  let reps = 200 in
  for _ = 1 to 8 do ignore (Sys.opaque_identity (f ())) done;
  let before = Gc.minor_words () in
  for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
  (Gc.minor_words () -. before) /. float_of_int reps

let check_construction_words name ~limit f =
  if native then
    let words = minor_words_per_call f in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f minor words <= %.0f" name words limit)
      true (words <= limit)

(* Words allocated straight into the major heap — blocks over
   [Max_young_wosize] (256 words) skip the minor heap — as the change
   in [major_words - promoted_words]: promotion by a minor collection
   that [f] happens to trigger cancels out.  Read with [Gc.counters]:
   under OCaml 5 [Gc.quick_stat]'s [major_words] only catches up at
   the next major slice, so a short [f] would read as 0. *)
let direct_major_words f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  ignore (Sys.opaque_identity (f ()));
  let before = direct () in
  ignore (Sys.opaque_identity (f ()));
  direct () -. before

let check_no_direct_major name f =
  if native then
    Alcotest.(check (float 0.0))
      (name ^ ": no direct major-heap words")
      0.0 (direct_major_words f)

let test_construction_alloc () =
  check_construction_words "Ept.create ()" ~limit:128. (fun () ->
      Ept.create ());
  check_construction_words "Guest_pt.direct_map 7092 MiB" ~limit:1024.
    (fun () -> Guest_pt.direct_map ~total_mem:(7092 * mib));
  check_no_direct_major "Ept.create ()" (fun () -> Ept.create ());
  check_no_direct_major "Guest_pt.direct_map 7092 MiB" (fun () ->
      Guest_pt.direct_map ~total_mem:(7092 * mib));
  check_no_direct_major "24 MiB map_region + first translate" (fun () ->
      let ept = Ept.create () in
      Ept.map_region ept (Region.make ~base:(64 * mib) ~len:(24 * mib));
      Ept.translate_code ept (70 * mib) ~access:`Read)

(* ------------------------------------------------------------------ *)
(* The walk-cache generation counter must never move on read-only
   paths — a read that bumped it would re-invalidate the cache on
   every probe, which is exactly the warm-EPT-slower-than-cold anomaly
   the zero-GC rewrite removed.  Checked with observability recording,
   so metric emission can't sneak a bump in either. *)
let test_generation_stable_under_reads () =
  with_obs (fun () ->
      let ept = Ept.create ~max_page:Addr.Page_4k () in
      Ept.map_region ept (Region.make ~base:0 ~len:m2);
      Ept.map_region ept ~perms:Ept.ro
        (Region.make ~base:m2 ~len:m2);
      let gen = Ept.generation ept in
      for i = 0 to 4095 do
        (* hits, permission denials, and hard misses *)
        ignore (Ept.translate_code ept ((i land 511) * k4) ~access:`Read);
        ignore (Ept.translate_code ept (m2 + (i land 511) * k4) ~access:`Write);
        ignore (Ept.translate_code ept ((4 * m2) + (i * k4)) ~access:`Read);
        ignore (Ept.covers ept ~base:0 ~len:m2);
        ignore (Ept.page_size_at ept ((i land 511) * k4))
      done;
      Alcotest.(check int) "generation unchanged by read-only paths" gen
        (Ept.generation ept);
      let hits, _ = Ept.walk_cache_stats ept in
      Alcotest.(check bool) "walk cache actually hit" true (hits > 0))

(* Timing regression for the anomaly itself: a warm (walk-cache hit)
   translate must not cost more than the uncached full walk it
   short-circuits.  Floor latency (min of N) on both sides keeps the
   comparison robust against preemption noise; the real margin is
   several-fold, so no slack factor is needed. *)
let test_warm_not_slower_than_uncached () =
  let len = 8 * mib in
  let build walk_cache =
    let ept = Ept.create ~max_page:Addr.Page_4k ~walk_cache () in
    Ept.map_region ept (Region.make ~base:0 ~len);
    for p = 0 to (len / k4) - 1 do
      ignore (Ept.translate_code ept (p * k4) ~access:`Read)
    done;
    ept
  in
  let warm = build true in
  let cold = build false in
  let floor_ns ept =
    let iters = 50_000 in
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for i = 1 to iters do
        ignore
          (Ept.translate_code ept ((i * k4 + 8) land (len - 1)) ~access:`Read)
      done;
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
      if ns < !best then best := ns
    done;
    !best
  in
  let cold_ns = floor_ns cold in
  let warm_ns = floor_ns warm in
  Alcotest.(check bool)
    (Printf.sprintf "warm translate (%.1fns) <= uncached walk (%.1fns)"
       warm_ns cold_ns)
    true (warm_ns <= cold_ns)

let () =
  Alcotest.run "translation"
    [
      ( "tlb",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "set-conflict eviction" `Quick
            test_set_conflict_eviction;
          Alcotest.test_case "install refreshes" `Quick
            test_install_refreshes_existing;
          Alcotest.test_case "flush_range precision" `Quick
            test_flush_range_precision;
          Alcotest.test_case "flush_range wide" `Quick test_flush_range_wide;
        ] );
      ( "ept caches",
        [
          Alcotest.test_case "walk-cache invalidation" `Quick
            test_walk_cache_invalidation;
          Alcotest.test_case "covers-memo invalidation" `Quick
            test_covers_memo_invalidation;
          prop_cached_equals_uncached;
          prop_walk_cache_model;
          prop_map_matches_model;
        ] );
      ( "charge memo",
        [
          Alcotest.test_case "identical charges" `Quick
            test_charge_memo_identical;
          Alcotest.test_case "invalidation on pressure" `Quick
            test_charge_memo_invalidation;
        ] );
      ( "zero-alloc hot path",
        [
          Alcotest.test_case "tlb lookup" `Quick test_tlb_lookup_zero_alloc;
          Alcotest.test_case "tlb lookup, obs on" `Quick
            test_tlb_lookup_zero_alloc_obs_on;
          Alcotest.test_case "ept translate" `Quick
            test_ept_translate_zero_alloc;
          Alcotest.test_case "ept translate, obs on" `Quick
            test_ept_translate_zero_alloc_obs_on;
          Alcotest.test_case "bulk charges" `Quick test_charge_zero_alloc;
          Alcotest.test_case "bulk charges, obs on" `Quick
            test_charge_zero_alloc_obs_on;
          Alcotest.test_case "fleet shards, domains 1/2/7" `Quick
            test_fleet_sharded_zero_alloc;
          Alcotest.test_case "table construction" `Quick
            test_construction_alloc;
        ] );
      ( "warm-path regressions",
        [
          Alcotest.test_case "generation stable under reads" `Quick
            test_generation_stable_under_reads;
          Alcotest.test_case "warm <= uncached walk" `Slow
            test_warm_not_slower_than_uncached;
        ] );
    ]
