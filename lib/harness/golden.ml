(* Golden snapshot of every simulated observable the translation fast
   path could perturb.  The capture is pure simulation — no host
   timing — so the string is bit-stable run over run; the committed
   copy in test/golden/ pins the pre-optimisation outputs and the
   golden test asserts equality after every change to the TLB/EPT/cost
   paths. *)

open Covirt_hw

let mib = Covirt_sim.Units.mib
let gib = Covirt_sim.Units.gib

(* The registry experiments the capture pins, in capture order.  The
   campaign is pinned separately at 30 trials. *)
let shared =
  [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "ablate-coalesce";
    "ablate-piv"; "ablate-sync"; "compare"; "noise"; "scale"; "kernels";
    "isolation" ]

let header buf name = Buffer.add_string buf ("\n== " ^ name ^ " ==\n")

let linef buf fmt = Format.kasprintf (Buffer.add_string buf) (fmt ^^ "@\n")

(* A registry section: the report's tables, rendered, then its golden
   lines.  Titles and captions are presentation and stay out. *)
let section buf name (r : Registry.report) =
  header buf name;
  List.iter
    (function
      | Registry.Table t -> Buffer.add_string buf (Covirt_sim.Table.render t)
      | Registry.Title _ | Registry.Text _ -> ())
    r.blocks;
  List.iter (linef buf "%s") r.lines

(* Exact float, as in the registry's golden lines. *)
let f = Printf.sprintf "%.17g"

let soak ?domains buf =
  header buf "soak";
  let r = Covirt_resilience.Soak.run ~trials:60 ~seed:2026 ?domains () in
  linef buf "soak faults=%d fatal_recoveries=%d wedges=%d/%d budget=%b"
    r.Covirt_resilience.Soak.faults_injected
    r.Covirt_resilience.Soak.fatal_recoveries
    r.Covirt_resilience.Soak.wedges_detected
    r.Covirt_resilience.Soak.wedges_injected
    r.Covirt_resilience.Soak.budget_respected;
  linef buf "soak sibling_residual=%s reference_residual=%s unperturbed=%b"
    (f r.Covirt_resilience.Soak.sibling_residual)
    (f r.Covirt_resilience.Soak.reference_residual)
    r.Covirt_resilience.Soak.sibling_unperturbed;
  List.iter
    (fun (name, n) -> linef buf "soak incarnations %s=%d" name n)
    r.Covirt_resilience.Soak.incarnations

(* Granular scenario: loads/stores through the real (stateful) TLB and
   EPT on a protected stack, with flushes in between — the per-CPU TSC
   values at the end pin the cycle-exact behaviour of the granular
   translation path. *)
let granular buf =
  header buf "granular";
  let machine =
    Machine.create ~seed:11 ~zones:2 ~cores_per_zone:2
      ~mem_per_zone:(2 * gib) ~host_reserved_per_zone:(128 * mib) ()
  in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let _controller =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes)
      ~config:Covirt.Config.full
  in
  match
    Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"golden" ~cores:[ 1; 2 ]
      ~mem:[ (0, 256 * mib); (1, 256 * mib) ] ()
  with
  | Error e -> failwith ("golden granular boot: " ^ e)
  | Ok (_enclave, kitten) ->
      let ctx1 = Covirt_kitten.Kitten.context kitten ~core:1 in
      let ctx2 = Covirt_kitten.Kitten.context kitten ~core:2 in
      let alloc (ctx : Covirt_kitten.Kitten.context) bytes =
        match
          Covirt_kitten.Kitten.kalloc ~near_core:ctx.Covirt_kitten.Kitten.cpu.Cpu.id
            ctx.Covirt_kitten.Kitten.kernel ~bytes
        with
        | Ok base -> base
        | Error e -> failwith ("golden granular alloc: " ^ e)
      in
      let b1 = alloc ctx1 (16 * mib) in
      let b2 = alloc ctx2 (16 * mib) in
      let cpu1 = ctx1.Covirt_kitten.Kitten.cpu in
      let cpu2 = ctx2.Covirt_kitten.Kitten.cpu in
      for _pass = 1 to 3 do
        for i = 0 to 1023 do
          Machine.load machine cpu1 (b1 + (i * Addr.page_size_4k));
          Machine.store machine cpu2 (b2 + (i * Addr.page_size_4k))
        done
      done;
      (* Flush part of each TLB and re-touch: exercises flush_range
         precision and re-install. *)
      Tlb.flush_range cpu1.Cpu.tlb
        (Region.make ~base:b1 ~len:(2 * mib));
      Tlb.flush_all cpu2.Cpu.tlb;
      for i = 0 to 511 do
        Machine.load machine cpu1 (b1 + (i * Addr.page_size_4k));
        Machine.load machine cpu2 (b2 + (i * Addr.page_size_4k))
      done;
      (* Cross-enclave-free observables. *)
      for core = 0 to Machine.ncores machine - 1 do
        let cpu = Machine.cpu machine core in
        linef buf "granular cpu%d tsc=%d tlb_entries=%d flushes=%d" core
          (Cpu.rdtsc cpu)
          (Tlb.entry_count cpu.Cpu.tlb)
          (Tlb.flush_count cpu.Cpu.tlb)
      done;
      linef buf "granular wild_reads=%d" machine.Machine.wild_reads;
      (match Cpu.vmcs cpu1 with
      | Some vmcs -> (
          match vmcs.Vmcs.controls.Vmcs.ept with
          | Some ept ->
              let n4k, n2m, n1g = Ept.leaf_counts ept in
              linef buf "granular ept leaves=%d/%d/%d writes=%d" n4k n2m n1g
                (Ept.entry_writes ept)
          | None -> linef buf "granular ept none")
      | None -> linef buf "granular host mode")

(* The sharded soak is part of the golden surface: its merged counters
   must be a pure function of the shard seeds — the same whether the
   four shards ran on one domain or eight. *)
let soak_sharded ?domains buf =
  header buf "soak-sharded";
  let r = Covirt_resilience.Soak.run ~trials:60 ~seed:2026 ~shards:4 ?domains () in
  linef buf "soak4 faults=%d fatal_recoveries=%d wedges=%d/%d budget=%b"
    r.Covirt_resilience.Soak.faults_injected
    r.Covirt_resilience.Soak.fatal_recoveries
    r.Covirt_resilience.Soak.wedges_detected
    r.Covirt_resilience.Soak.wedges_injected
    r.Covirt_resilience.Soak.budget_respected;
  linef buf "soak4 unperturbed=%b" r.Covirt_resilience.Soak.sibling_unperturbed;
  List.iter
    (fun (name, n) -> linef buf "soak4 incarnations %s=%d" name n)
    r.Covirt_resilience.Soak.incarnations

let capture ?domains () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun name -> section buf name ((Registry.find name).run ~quick:true ~domains))
    shared;
  section buf "campaign" (Registry.campaign ~trials:30 ~domains);
  soak ?domains buf;
  soak_sharded ?domains buf;
  granular buf;
  Buffer.contents buf
