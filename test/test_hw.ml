(* Hardware component tests: addresses, NUMA, cost model, TLB, MSR,
   I/O ports, APIC, physical memory map. *)

open Covirt_hw

let mib = Covirt_sim.Units.mib

let test_addr_alignment () =
  Alcotest.(check int) "down" 0x200000 (Addr.page_down 0x2fffff ~size:Addr.page_size_2m);
  Alcotest.(check int) "up" 0x400000 (Addr.page_up 0x200001 ~size:Addr.page_size_2m);
  Alcotest.(check bool) "aligned" true (Addr.is_aligned 0x200000 ~size:Addr.page_size_2m);
  Alcotest.(check int) "pfn" 2 (Addr.pfn 0x2100 ~size:4096)

let test_numa_mapping () =
  let t = Numa.create ~zones:2 ~cores_per_zone:4 ~mem_per_zone:(1024 * mib) in
  Alcotest.(check int) "cores" 8 (Numa.cores t);
  Alcotest.(check int) "core 3 zone" 0 (Numa.zone_of_core t ~core:3);
  Alcotest.(check int) "core 4 zone" 1 (Numa.zone_of_core t ~core:4);
  Alcotest.(check int) "addr zone 0" 0 (Numa.zone_of_addr t (512 * mib));
  Alcotest.(check int) "addr zone 1" 1 (Numa.zone_of_addr t (1500 * mib));
  (* addresses above DRAM report the last zone *)
  Alcotest.(check int) "mmio zone" 1 (Numa.zone_of_addr t (4096 * mib));
  Alcotest.(check (list int)) "cores of zone 1" [ 4; 5; 6; 7 ] (Numa.cores_of_zone t 1);
  Alcotest.(check bool) "local" true (Numa.is_local t ~core:0 ~addr:0)

let test_cost_model_reach () =
  let m = Cost_model.default in
  Alcotest.(check int) "2M reach" (32 * 2 * mib)
    (Cost_model.tlb_reach m ~page_size:Addr.Page_2m);
  Alcotest.(check bool) "4K reach includes STLB" true
    (Cost_model.tlb_reach m ~page_size:Addr.Page_4k = (64 + 1536) * 4096)

let test_cost_model_random_profile () =
  let m = Cost_model.default in
  let small, pm_small = Cost_model.random_profile m ~working_set:(16 * 1024) ~sharers:1 in
  let big, pm_big = Cost_model.random_profile m ~working_set:(512 * mib) ~sharers:1 in
  Alcotest.(check bool) "bigger ws costs more" true (big > small);
  Alcotest.(check bool) "dram fraction grows" true (pm_big > pm_small);
  Alcotest.(check bool) "fraction in [0,1]" true (pm_big <= 1.0 && pm_small >= 0.0);
  (* L3 sharing raises cost *)
  let shared, _ = Cost_model.random_profile m ~working_set:(8 * mib) ~sharers:8 in
  let alone, _ = Cost_model.random_profile m ~working_set:(8 * mib) ~sharers:1 in
  Alcotest.(check bool) "sharers raise cost" true (shared > alone)

let test_cost_model_ept_walk_order () =
  let m = Cost_model.default in
  Alcotest.(check bool) "1G cheapest" true
    (Cost_model.ept_walk_extra m Addr.Page_1g
     < Cost_model.ept_walk_extra m Addr.Page_2m
    && Cost_model.ept_walk_extra m Addr.Page_2m
       < Cost_model.ept_walk_extra m Addr.Page_4k)

let make_tlb () =
  let model = Cost_model.default in
  let rng = Covirt_sim.Rng.create ~seed:3 in
  Tlb.create ~model ~rng

let test_tlb_install_lookup () =
  let tlb = make_tlb () in
  Alcotest.(check bool) "miss" true (Tlb.lookup tlb 0x200000 = None);
  Tlb.install tlb 0x200000 ~page_size:Addr.Page_2m;
  Alcotest.(check bool) "hit same page" true
    (Option.is_some (Tlb.lookup tlb 0x3fffff));
  Alcotest.(check bool) "miss next page" true (Tlb.lookup tlb 0x400000 = None)

let test_tlb_flush_range () =
  let tlb = make_tlb () in
  Tlb.install tlb 0x200000 ~page_size:Addr.Page_2m;
  Tlb.install tlb 0x600000 ~page_size:Addr.Page_2m;
  Tlb.flush_range tlb (Region.make ~base:0x200000 ~len:Addr.page_size_2m);
  Alcotest.(check bool) "flushed" true (Tlb.lookup tlb 0x200000 = None);
  Alcotest.(check bool) "other survives" true
    (Option.is_some (Tlb.lookup tlb 0x600000))

let test_tlb_flush_all_and_counts () =
  let tlb = make_tlb () in
  Tlb.install tlb 0 ~page_size:Addr.Page_4k;
  Tlb.install tlb 8192 ~page_size:Addr.Page_4k;
  Alcotest.(check int) "two entries" 2 (Tlb.entry_count tlb);
  Tlb.flush_all tlb;
  Alcotest.(check int) "empty" 0 (Tlb.entry_count tlb);
  Alcotest.(check int) "flush counted" 1 (Tlb.flush_count tlb)

let test_tlb_eviction_bounded () =
  let tlb = make_tlb () in
  (* install far more 2M translations than there are slots *)
  for i = 0 to 99 do
    Tlb.install tlb (i * Addr.page_size_2m) ~page_size:Addr.Page_2m
  done;
  Alcotest.(check bool) "bounded by capacity" true
    (Tlb.entry_count tlb <= Cost_model.default.Cost_model.dtlb_entries_2m
                            + Cost_model.default.Cost_model.dtlb_entries_4k
                            + Cost_model.default.Cost_model.dtlb_entries_1g)

let test_tlb_miss_rates () =
  let model = Cost_model.default in
  Alcotest.(check (float 1e-9)) "small ws no misses" 0.0
    (Tlb.bulk_miss_rate ~model ~page_size:Addr.Page_2m ~working_set:mib);
  let rate =
    Tlb.bulk_miss_rate ~model ~page_size:Addr.Page_2m ~working_set:(256 * mib)
  in
  Alcotest.(check bool) "256MB/2M ~ 0.75" true (Float.abs (rate -. 0.75) < 0.01);
  let stream = Tlb.stream_miss_rate ~model ~page_size:Addr.Page_2m in
  Alcotest.(check bool) "stream rare" true (stream < 0.0001)

let test_msr_file () =
  let msrs = Msr.create () in
  Alcotest.(check bool) "efer long mode" true
    (Int64.logand (Msr.read msrs Msr.ia32_efer) 0x400L <> 0L);
  Msr.write msrs 0x123 42L;
  Alcotest.(check int64) "write/read" 42L (Msr.read msrs 0x123);
  Alcotest.(check int64) "unknown reads 0" 0L (Msr.read msrs 0x9999)

let test_msr_bitmap () =
  let bm = Msr.Bitmap.default_sensitive () in
  Alcotest.(check bool) "smm protected" true
    (Msr.Bitmap.is_protected bm Msr.ia32_smm_monitor_ctl);
  Alcotest.(check bool) "pat open" false (Msr.Bitmap.is_protected bm Msr.ia32_pat);
  Msr.Bitmap.unprotect bm Msr.ia32_smm_monitor_ctl;
  Alcotest.(check bool) "unprotected" false
    (Msr.Bitmap.is_protected bm Msr.ia32_smm_monitor_ctl)

let test_io_bitmap () =
  let bm = Io_port.Bitmap.default_sensitive () in
  Alcotest.(check bool) "reset port" true
    (Io_port.Bitmap.is_protected bm Io_port.reset_port);
  Alcotest.(check bool) "pit" true (Io_port.Bitmap.is_protected bm Io_port.pit_channel0);
  Alcotest.(check bool) "serial open" false
    (Io_port.Bitmap.is_protected bm Io_port.serial_com1);
  Alcotest.check_raises "range check"
    (Invalid_argument "Io_port.Bitmap.is_protected") (fun () ->
      ignore (Io_port.Bitmap.is_protected bm 70000))

let test_apic_irr_priority () =
  let apic = Apic.create ~apic_id:0 in
  Apic.raise_irr apic ~vector:0x40;
  Apic.raise_irr apic ~vector:0xef;
  Apic.raise_irr apic ~vector:0x80;
  Alcotest.(check (option int)) "highest first" (Some 0xef) (Apic.ack_highest apic);
  Alcotest.(check (option int)) "then 0x80" (Some 0x80) (Apic.ack_highest apic);
  Alcotest.(check (option int)) "then 0x40" (Some 0x40) (Apic.ack_highest apic);
  Alcotest.(check (option int)) "empty" None (Apic.ack_highest apic)

let test_apic_pir () =
  let apic = Apic.create ~apic_id:1 in
  Apic.pir_post apic ~vector:0x40;
  Apic.pir_post apic ~vector:0x41;
  Alcotest.(check bool) "outstanding" true (Apic.pir_outstanding apic);
  Alcotest.(check (list int)) "drain ordered" [ 0x40; 0x41 ] (Apic.pir_drain apic);
  Alcotest.(check bool) "drained" false (Apic.pir_outstanding apic);
  Alcotest.(check (list int)) "second drain empty" [] (Apic.pir_drain apic)

let test_apic_nmi_and_timer () =
  let apic = Apic.create ~apic_id:2 in
  Alcotest.(check bool) "no nmi" false (Apic.take_nmi apic);
  Apic.raise_nmi apic;
  Alcotest.(check bool) "nmi taken" true (Apic.take_nmi apic);
  Alcotest.(check bool) "cleared" false (Apic.take_nmi apic);
  Apic.set_timer_hz apic 10.0;
  Alcotest.(check (float 0.0)) "hz" 10.0 (Apic.timer_hz apic)

let mk_mem () =
  let topology = Numa.create ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(1024 * mib) in
  Phys_mem.create ~topology ~host_reserved_per_zone:(128 * mib)

let test_phys_mem_reservations () =
  let mem = mk_mem () in
  Alcotest.(check bool) "host owns bottom z0" true
    (Owner.equal (Phys_mem.owner_at mem 0) Owner.Host);
  Alcotest.(check bool) "host owns bottom z1" true
    (Owner.equal (Phys_mem.owner_at mem (1024 * mib)) Owner.Host);
  Alcotest.(check bool) "rest free" true
    (Owner.equal (Phys_mem.owner_at mem (512 * mib)) Owner.Free)

let test_phys_mem_alloc () =
  let mem = mk_mem () in
  (match Phys_mem.alloc mem ~owner:(Owner.Enclave 1) ~zone:1 ~len:(64 * mib) with
  | Ok r ->
      Alcotest.(check bool) "in zone 1" true (r.Region.base >= 1024 * mib);
      Alcotest.(check bool) "2M aligned" true
        (Addr.is_aligned r.Region.base ~size:Addr.page_size_2m);
      Alcotest.(check bool) "owned" true
        (Owner.equal (Phys_mem.owner_at mem r.Region.base) (Owner.Enclave 1));
      Phys_mem.release mem r;
      Alcotest.(check bool) "freed" true
        (Owner.equal (Phys_mem.owner_at mem r.Region.base) Owner.Free)
  | Error e -> Alcotest.fail e);
  (* over-allocation fails *)
  Alcotest.(check bool) "too big fails" true
    (Result.is_error
       (Phys_mem.alloc mem ~owner:Owner.Host ~zone:0 ~len:(2048 * mib)))

let test_phys_mem_free_accounting () =
  let mem = mk_mem () in
  let before = Phys_mem.free_bytes mem ~zone:0 in
  (match Phys_mem.alloc mem ~owner:(Owner.Enclave 9) ~zone:0 ~len:(32 * mib) with
  | Ok r ->
      Alcotest.(check int) "free shrinks" (before - (32 * mib))
        (Phys_mem.free_bytes mem ~zone:0);
      Phys_mem.release mem r;
      Alcotest.(check int) "free restored" before (Phys_mem.free_bytes mem ~zone:0)
  | Error e -> Alcotest.fail e)

let test_phys_mem_devices () =
  let mem = mk_mem () in
  let window = Phys_mem.add_device mem ~name:"nic" ~len:(16 * mib) in
  Alcotest.(check bool) "above DRAM" true (window.Region.base >= Phys_mem.mmio_base mem);
  (match Phys_mem.owner_at mem window.Region.base with
  | Owner.Device d -> Alcotest.(check string) "named" "nic" d
  | _ -> Alcotest.fail "not device-owned")

let test_phys_mem_assign () =
  let mem = mk_mem () in
  let r = Region.make ~base:(256 * mib) ~len:(16 * mib) in
  (match Phys_mem.assign mem ~owner:(Owner.Enclave 2) r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "double assign fails" true
    (Result.is_error (Phys_mem.assign mem ~owner:(Owner.Enclave 3) r))

(* [owns_range] agrees with [owner_at] checked frame by frame, over
   random assign/chown/release histories in zone 0 and probes that
   straddle the host reservation, enclave blocks and free memory. *)
let prop_owns_range_matches_frames =
  let owners = [| Owner.Host; Owner.Enclave 1; Owner.Enclave 2 |] in
  let gen =
    QCheck2.Gen.(
      let region =
        let+ base = int_range 0 299 and+ len = int_range 1 40 in
        Region.make ~base:(base * mib) ~len:(len * mib)
      in
      let op =
        triple (oneofl [ `Assign; `Chown; `Release ]) (int_range 0 2) region
      in
      let probe =
        let+ owner = int_range 0 2
        and+ base = int_range 0 (320 * 256)
        and+ pages = int_range 1 4096 in
        (owner, Region.make ~base:(base * 4096) ~len:(pages * 4096))
      in
      pair (list_size (int_range 0 12) op) (list_size (int_range 1 20) probe))
  in
  Covirt_test_util.Helpers.qtest ~count:100 "owns_range = per-frame owner_at"
    gen (fun (ops, probes) ->
      let mem = mk_mem () in
      List.iter
        (fun (op, o, r) ->
          match op with
          | `Assign -> ignore (Phys_mem.assign mem ~owner:owners.(o) r)
          | `Chown -> Phys_mem.chown mem r owners.(o)
          | `Release -> Phys_mem.release mem r)
        ops;
      List.for_all
        (fun (o, r) ->
          let owner = owners.(o) in
          let rec frames addr =
            addr >= Region.limit r
            || Owner.equal (Phys_mem.owner_at mem addr) owner
               && frames (addr + 4096)
          in
          Phys_mem.owns_range mem ~owner r = frames r.Region.base)
        probes)

(* Model test: the keyed [Phys_mem] against the list-based map it
   replaced, kept here verbatim as the reference.  Random
   alloc/assign/chown/release/add_device histories over two zones,
   with partial releases and regions that straddle the zone boundary;
   after every step the two must agree on [owner_at] at probe
   addresses, [owned_by] for every owner, [free_bytes] per zone, the
   exact [snapshot] list and the exact region [alloc] returns. *)
module Ref_mem = struct
  type assignment = { region : Region.t; owner : Owner.t }

  type t = {
    topology : Numa.t;
    mutable assignments : assignment list;
    mutable free : Region.Set.t;
    mutable next_mmio : Addr.t;
    mmio_base : Addr.t;
  }

  let create ~topology ~host_reserved_per_zone =
    let total = Numa.total_mem topology in
    let free = ref (Region.Set.of_list [ Region.make ~base:0 ~len:total ]) in
    let assignments = ref [] in
    for z = 0 to Numa.zones topology - 1 do
      let zr = Numa.zone_range topology z in
      let host = Region.make ~base:zr.Region.base ~len:host_reserved_per_zone in
      free := Region.Set.remove !free host;
      assignments := { region = host; owner = Owner.Host } :: !assignments
    done;
    { topology; assignments = !assignments; free = !free; next_mmio = total;
      mmio_base = total }

  let snapshot t = List.map (fun a -> (a.region, a.owner)) t.assignments

  let alloc t ~owner ~zone ~len =
    let len = Addr.page_up len ~size:Addr.page_size_4k in
    let zr = Numa.zone_range t.topology zone in
    let candidate =
      Region.Set.to_list (Region.Set.inter t.free (Region.Set.of_list [ zr ]))
      |> List.find_map (fun r ->
             let base = Addr.page_up r.Region.base ~size:Addr.page_size_2m in
             if base + len <= Region.limit r then Some (Region.make ~base ~len)
             else None)
    in
    match candidate with
    | None -> Error "full"
    | Some region ->
        t.free <- Region.Set.remove t.free region;
        t.assignments <- { region; owner } :: t.assignments;
        Ok region

  let assign t ~owner region =
    if Region.Set.mem_range t.free ~base:region.Region.base ~len:region.Region.len
    then begin
      t.free <- Region.Set.remove t.free region;
      t.assignments <- { region; owner } :: t.assignments;
      Ok ()
    end
    else Error "not free"

  let remnants t region =
    let keep, cut =
      List.partition (fun a -> not (Region.overlaps a.region region)) t.assignments
    in
    ( keep,
      List.concat_map
        (fun a ->
          Region.Set.to_list
            (Region.Set.remove (Region.Set.of_list [ a.region ]) region)
          |> List.map (fun r -> { region = r; owner = a.owner }))
        cut )

  let release t region =
    let keep, remnants = remnants t region in
    t.assignments <- remnants @ keep;
    t.free <- Region.Set.add t.free region

  let chown t region owner =
    let keep, remnants = remnants t region in
    t.free <- Region.Set.remove t.free region;
    t.assignments <- ({ region; owner } :: remnants) @ keep

  let owner_at t addr =
    match List.find_opt (fun a -> Region.contains a.region addr) t.assignments with
    | Some a -> a.owner
    | None -> if addr >= t.mmio_base then Owner.Device "unmapped-mmio" else Owner.Free

  let owned_by t owner =
    List.filter_map
      (fun a -> if Owner.equal a.owner owner then Some a.region else None)
      t.assignments
    |> Region.Set.of_list

  let free_bytes t ~zone =
    Region.Set.total_bytes
      (Region.Set.inter t.free
         (Region.Set.of_list [ Numa.zone_range t.topology zone ]))

  let add_device t ~name ~len =
    let len = Addr.page_up len ~size:Addr.page_size_4k in
    let region = Region.make ~base:t.next_mmio ~len in
    t.next_mmio <- t.next_mmio + len;
    t.assignments <- { region; owner = Owner.Device name } :: t.assignments;
    region
end

let model_owners =
  [| Owner.Host; Owner.Enclave 1; Owner.Enclave 2; Owner.Enclave 3;
     Owner.Device "d0"; Owner.Free |]

type mem_op =
  | Alloc of int * int * int  (* owner, zone, len *)
  | Assign of int * Region.t
  | Chown of int * Region.t
  | Release of Region.t
  | Add_device of int

let pp_mem_op ppf = function
  | Alloc (o, z, len) -> Format.fprintf ppf "alloc o%d z%d %d" o z len
  | Assign (o, r) -> Format.fprintf ppf "assign o%d %a" o Region.pp r
  | Chown (o, r) -> Format.fprintf ppf "chown o%d %a" o Region.pp r
  | Release r -> Format.fprintf ppf "release %a" Region.pp r
  | Add_device len -> Format.fprintf ppf "add_device %d" len

let prop_phys_mem_matches_list_model =
  let gen =
    QCheck2.Gen.(
      (* Two 1 GiB zones: bases anywhere in DRAM at 4K, 2M or 64M
         granularity, so releases land partially inside assignments
         and across the zone boundary. *)
      let region =
        let* unit = oneofl [ 4096; 2 * mib; 64 * mib ] in
        let span = 2048 * mib / unit in
        let+ base = int_range 0 (span - 1)
        and+ len = int_range 1 (max 1 (span / 8)) in
        let base = base * unit in
        Region.make ~base ~len:(min (len * unit) ((2048 * mib) - base))
      in
      let owner = int_range 0 (Array.length model_owners - 1) in
      let op =
        frequency
          [
            ( 4,
              let+ o = owner and+ z = int_range 0 1
              and+ len = int_range 1 (96 * 256) in
              Alloc (o, z, len * 4096) );
            (2, map2 (fun o r -> Assign (o, r)) owner region);
            (2, map2 (fun o r -> Chown (o, r)) owner region);
            (4, map (fun r -> Release r) region);
            (1, map (fun p -> Add_device (p * 4096)) (int_range 1 512));
          ]
      in
      list_size (int_range 1 40) op)
  in
  Covirt_test_util.Helpers.qtest ~count:300
    ~print:(QCheck2.Print.list (Format.asprintf "%a" pp_mem_op))
    "keyed phys_mem = list model" gen (fun ops ->
      let topology =
        Numa.create ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(1024 * mib)
      in
      let mem = Phys_mem.create ~topology ~host_reserved_per_zone:(128 * mib) in
      let model = Ref_mem.create ~topology ~host_reserved_per_zone:(128 * mib) in
      let devices = ref 0 in
      let same_result a b =
        match (a, b) with
        | Ok x, Ok y -> Region.equal x y
        | Error _, Error _ -> true
        | _ -> false
      in
      let agree () =
        let snap = Ref_mem.snapshot model in
        let probes =
          List.concat_map
            (fun (r, _) -> [ r.Region.base; Region.last r; Region.limit r ])
            snap
          @ List.init 64 (fun i -> i * 33 * mib)
        in
        List.equal
          (fun (r, o) (r', o') -> Region.equal r r' && Owner.equal o o')
          (Phys_mem.snapshot mem) snap
        && List.for_all
             (fun a -> Owner.equal (Phys_mem.owner_at mem a) (Ref_mem.owner_at model a))
             probes
        && Array.for_all
             (fun o ->
               Region.Set.equal (Phys_mem.owned_by mem o) (Ref_mem.owned_by model o))
             model_owners
        && List.for_all
             (fun zone ->
               Phys_mem.free_bytes mem ~zone = Ref_mem.free_bytes model ~zone)
             [ 0; 1 ]
      in
      List.for_all
        (fun op ->
          let results_agree =
            match op with
            | Alloc (o, zone, len) ->
                let owner = model_owners.(o) in
                same_result
                  (Phys_mem.alloc mem ~owner ~zone ~len)
                  (Ref_mem.alloc model ~owner ~zone ~len)
            | Assign (o, r) ->
                let owner = model_owners.(o) in
                Result.is_ok (Phys_mem.assign mem ~owner r)
                = Result.is_ok (Ref_mem.assign model ~owner r)
            | Chown (o, r) ->
                Phys_mem.chown mem r model_owners.(o);
                Ref_mem.chown model r model_owners.(o);
                true
            | Release r ->
                Phys_mem.release mem r;
                Ref_mem.release model r;
                true
            | Add_device len ->
                incr devices;
                let name = Printf.sprintf "dev%d" !devices in
                Region.equal
                  (Phys_mem.add_device mem ~name ~len)
                  (Ref_mem.add_device model ~name ~len)
          in
          results_agree && agree ())
        ops)

let () =
  Alcotest.run "hw"
    [
      ("addr", [ Alcotest.test_case "alignment" `Quick test_addr_alignment ]);
      ("numa", [ Alcotest.test_case "mapping" `Quick test_numa_mapping ]);
      ( "cost_model",
        [
          Alcotest.test_case "tlb reach" `Quick test_cost_model_reach;
          Alcotest.test_case "random profile" `Quick test_cost_model_random_profile;
          Alcotest.test_case "ept walk order" `Quick test_cost_model_ept_walk_order;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "install/lookup" `Quick test_tlb_install_lookup;
          Alcotest.test_case "flush range" `Quick test_tlb_flush_range;
          Alcotest.test_case "flush all" `Quick test_tlb_flush_all_and_counts;
          Alcotest.test_case "eviction bounded" `Quick test_tlb_eviction_bounded;
          Alcotest.test_case "miss rates" `Quick test_tlb_miss_rates;
        ] );
      ( "msr",
        [
          Alcotest.test_case "file" `Quick test_msr_file;
          Alcotest.test_case "bitmap" `Quick test_msr_bitmap;
        ] );
      ("io", [ Alcotest.test_case "bitmap" `Quick test_io_bitmap ]);
      ( "apic",
        [
          Alcotest.test_case "irr priority" `Quick test_apic_irr_priority;
          Alcotest.test_case "posted interrupts" `Quick test_apic_pir;
          Alcotest.test_case "nmi and timer" `Quick test_apic_nmi_and_timer;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "reservations" `Quick test_phys_mem_reservations;
          Alcotest.test_case "alloc/release" `Quick test_phys_mem_alloc;
          Alcotest.test_case "free accounting" `Quick test_phys_mem_free_accounting;
          Alcotest.test_case "devices" `Quick test_phys_mem_devices;
          Alcotest.test_case "assign" `Quick test_phys_mem_assign;
          prop_owns_range_matches_frames;
          prop_phys_mem_matches_list_model;
        ] );
    ]
