(* Quickstart: build the paper's leaf-spine testbed, run some traffic, and
   take a synchronized network snapshot of per-port packet counters with
   channel state.

   Run with: dune exec examples/quickstart.exe
   Exits 1 if the snapshot does not complete or any wire violates the
   consistency check. *)

open Speedlight_sim
open Speedlight_dataplane
open Speedlight_core
open Speedlight_topology
open Speedlight_net
open Speedlight_workload

let () =
  (* 1. A topology: 2 leaves x 2 spines, 3 servers per leaf (Fig. 8 of the
     paper), with scaled-down 1/4 Gbps links so the packet-level
     simulation stays fast. *)
  let ls =
    Topology.leaf_spine
      ~host_link:{ Topology.bandwidth_bps = 1e9; latency = Time.us 1 }
      ~fabric_link:{ Topology.bandwidth_bps = 4e9; latency = Time.us 1 }
      ()
  in

  (* 2. A deployment: switches with Speedlight data planes, PTP-synced
     control planes, and a snapshot observer. The default config collects
     packet counters with channel state. *)
  let net = Net.create ls.Topology.topo in
  let engine = Net.engine net in

  (* 3. Background traffic: Poisson streams between every host pair. *)
  let send ~src ~dst ~size ~flow_id = Net.send net ~flow_id ~src ~dst ~size () in
  Apps.Uniform.run ~engine ~rng:(Net.fresh_rng net) ~send
    ~fids:(Traffic.flow_ids ())
    ~hosts:(Array.to_list ls.Topology.host_of_server)
    ~rate_pps:5_000. ~pkt_size:1500 ~until:(Time.ms 200);

  (* 4. After a warm-up, tell the control planes which channels the
     routing layer never uses (liveness config, paper section 6), then
     take a snapshot. *)
  ignore
    (Engine.schedule engine ~at:(Time.ms 40) (fun () -> Net.auto_exclude_idle net));
  let sid = ref 0 in
  ignore
    (Engine.schedule engine ~at:(Time.ms 50) (fun () ->
         match Net.try_take_snapshot net () with
         | Ok s -> sid := s
         | Error e ->
             prerr_endline ("snapshot refused: " ^ Observer.error_to_string e);
             exit 1));
  Engine.run_until engine (Time.ms 300);

  (* 5. Read the assembled snapshot. *)
  match Net.result net ~sid:!sid with
  | None ->
      prerr_endline "snapshot did not complete (should not happen)";
      exit 1
  | Some snap ->
      Printf.printf "snapshot %d: complete=%b consistent=%b, %d unit reports\n"
        snap.Observer.sid snap.Observer.complete snap.Observer.consistent
        (Unit_id.Map.cardinal snap.Observer.reports);
      (match Net.sync_spread net ~sid:!sid with
      | Some spread ->
          Printf.printf "all measurements taken within %s of each other\n"
            (Time.to_string spread)
      | None -> ());

      (* Per-unit values: packet counts at the moment of the cut, plus the
         in-flight packets each channel recorded. *)
      print_endline "\nper-unit pre-snapshot packet counts:";
      Unit_id.Map.iter
        (fun uid (r : Report.t) ->
          Printf.printf "  %-10s count=%-7.0f in-flight=%.0f%s\n"
            (Unit_id.to_string uid)
            (Option.value ~default:nan r.Report.value)
            r.Report.channel
            (if r.Report.consistent then "" else "  (inconsistent)"))
        snap.Observer.reports;

      (* The causal-consistency guarantee, checked on every inter-switch
         wire: packets the sender counted = packets the receiver counted
         + packets recorded as in-flight. *)
      print_endline "\ncausal consistency on every wire:";
      let violations = ref 0 in
      Topology.iter_switch_ports ls.Topology.topo (fun ~switch ~port peer ->
          match peer with
          | Topology.Switch_port (s', p') ->
              let get uid = Unit_id.Map.find_opt uid snap.Observer.reports in
              (match
                 ( get (Unit_id.egress ~switch ~port),
                   get (Unit_id.ingress ~switch:s' ~port:p') )
               with
              | Some e, Some i ->
                  let sent = Option.value ~default:nan e.Report.value in
                  let recv = Option.value ~default:nan i.Report.value in
                  let ok = sent = recv +. i.Report.channel in
                  if not ok then incr violations;
                  Printf.printf
                    "  s%d/p%d -> s%d/p%d: sent=%-6.0f received=%-6.0f in-flight=%-3.0f  %s\n"
                    switch port s' p' sent recv i.Report.channel
                    (if ok then "OK" else "VIOLATION")
              | _ -> ())
          | Topology.Host_port _ -> ());
      if !violations > 0 then begin
        Printf.eprintf "quickstart: %d wire(s) violate causal consistency\n"
          !violations;
        exit 1
      end
