open Speedlight_sim
open Speedlight_clock
open Speedlight_dataplane
open Speedlight_core
open Speedlight_topology
module Trace = Speedlight_trace.Trace
module Metrics = Speedlight_trace.Metrics

(* ------------------------------------------------------------------ *)
(* Sharded deployment layout.

   The switch graph is partitioned into [n_shards] parts, each with its
   own engine, packet pool and domain (see {!Speedlight_sim.Shard}). All
   simulation state is owned by exactly one shard: a switch and its
   control plane, clock and RNG streams live on the shard the partition
   assigned; the observer, host NIC transmit state and the workload live
   on shard 0. Every interaction that crosses entities is a *channel*
   with a stable source id and a positive delay:

     wire         switch -> peer switch   serialization + link latency
     NIC          host sender -> switch   serialization + host link latency
     notify       data plane -> own CP    notify_latency      (same shard)
     cmd          observer -> CP          cmd_latency
     report       CP -> observer          report_latency

   Same-shard channel traffic is an ordinary source-tagged event;
   cross-shard traffic goes through a per-(producer, consumer) mailbox
   and is re-scheduled at the next epoch boundary. Because heap order is
   (time, source, per-source sequence) and each channel has exactly one
   producer, the re-scheduled events land in exactly the heap positions
   they would have had on a single engine — which is what makes a
   sharded run bit-identical to a serial one (shards = 1 uses the very
   same code with every shard index equal to 0). *)
(* ------------------------------------------------------------------ *)

(* A receive-side channel: the in-flight FIFO of one directed link,
   owned by the *receiving* shard. The sender pushes the packet and
   schedules (or mails) the arrival event; arrival times on one channel
   are strictly increasing, so ring order is event order. *)
type rx_chan = {
  rx_src : int;  (* stable source id of this channel's arrival events *)
  rx_shard : int;
  rx_ring : Packet.t Ring.t;
  mutable rx_on : unit -> unit;  (* pops one packet, feeds the receiver *)
}

(* Cross-shard message: either a packet on a wire/NIC channel, or a
   control message (observer command, control-plane report). *)
type msg =
  | Pkt of { chan : rx_chan; pkt : Packet.t; at : Time.t }
  | Ctl of { c_src : int; c_at : Time.t; c_run : unit -> unit }

(* Per-host transmit state, precomputed at creation so [send] does no
   topology lookups on the hot path. Owned by shard 0 (the workload
   side); the receive end [rx] is owned by the attachment switch's
   shard. *)
type host_tx = {
  link : Topology.link_spec;
  mutable busy_until : Time.t;
  rx : rx_chan;
  (* Memoized NIC serialization time for the last packet size seen (the
     result is a pure function of the size). *)
  mutable last_size : int;
  mutable last_ser : Time.t;
}

(* A global action (sharded mode): runs with every domain quiesced and
   every engine clock advanced to [g_at]; ordered by (g_at, g_seq). In
   serial mode globals are ordinary events under source id 0, which
   sorts before every other source at the same instant — the same
   "before everything at its time" semantics. *)
type global = { g_at : Time.t; g_seq : int; g_run : unit -> unit }

(* ------------------------------------------------------------------ *)
(* Fault interposers.

   Every channel (wire, NIC, notify, cmd, report) owns a fault record
   consulted on its send path. The default state is a single
   load-and-branch ([cf_active] / a [None] drop hook), so the no-fault
   hot path is unchanged. All fields are mutated only from the shard
   that owns the channel's send side ({!Speedlight_faults} schedules its
   fault events there), keeping sharded runs race-free and
   deterministic.

   Extra latency can shrink back to zero mid-run, which could reorder a
   FIFO channel; [cf_last_arrival] clamps arrivals monotone per channel
   so ring order always equals event order. Extra latency is always
   >= 0, so a cross-shard channel never undercuts the lookahead that was
   computed from its fault-free delay. *)
(* ------------------------------------------------------------------ *)

type chan_fault = {
  mutable cf_active : bool;  (* fast-path summary of the fields below *)
  mutable cf_up : bool;
  mutable cf_extra : Time.t;  (* added one-way latency, >= 0 *)
  mutable cf_drop : (unit -> bool) option;  (* per-packet loss process *)
  mutable cf_last_arrival : Time.t;
  mutable cf_drops : int;
}

let fresh_chan_fault () =
  {
    cf_active = false;
    cf_up = true;
    cf_extra = Time.zero;
    cf_drop = None;
    cf_last_arrival = Time.zero;
    cf_drops = 0;
  }

let chan_fault_refresh cf =
  cf.cf_active <-
    (not cf.cf_up)
    || cf.cf_extra <> Time.zero
    || (match cf.cf_drop with Some _ -> true | None -> false)

(* Control channels (notify / cmd / report) only ever lose whole
   messages; latency shaping there would race the protocol's own timers
   for no modeling benefit. *)
type ctl_fault = {
  mutable xf_drop : (unit -> bool) option;
  mutable xf_drops : int;
}

let fresh_ctl_fault () = { xf_drop = None; xf_drops = 0 }

let[@inline] ctl_fault_drops xf =
  match xf.xf_drop with
  | None -> false
  | Some d ->
      if d () then begin
        xf.xf_drops <- xf.xf_drops + 1;
        true
      end
      else false

(* State that exists exactly when the net is sharded (n_shards > 1).
   Bundling it in one option makes "sharded implies the lookahead matrix
   exists" provable by construction: the sharded run path matches on
   [par] itself instead of asserting after an [n_shards] comparison. *)
type parallel = {
  par_la : Shard.Lookahead.t;  (* directional lookahead matrix *)
  par_report : Partition.report;
}

type t = {
  engines : Engine.t array;
  n_shards : int;
  shard_of : int array;  (* switch -> shard *)
  lookahead : Time.t;  (* smallest matrix entry; 0 when serial *)
  par : parallel option;  (* Some iff n_shards > 1 *)
  mutable shard_stats : Shard.stats;  (* accumulated over run_until calls *)
  mutable timed_epochs : bool;  (* measure barrier waits in sharded runs *)
  mailboxes : msg Mailbox.t array array;  (* [producer].[consumer] *)
  master_rng : Rng.t;
  topo : Topology.t;
  routing : Routing.t;
  cfg : Config.t;
  mutable switches : Switch.t array;
  mutable cps : Control_plane.t array;
  obs : Observer.t;
  ptp : Ptp.t;
  pktgens : Packet.Gen.t array;  (* one pool per shard *)
  host_txs : host_tx array;
  mutable deliver_cbs : (host:int -> Packet.t -> unit) list;
  delivered : int array;  (* per shard, summed on read *)
  mutable next_flow : int;
  mutable globals : global list;  (* pending, sorted; sharded mode only *)
  mutable global_seq : int;
  (* Fault interposers, indexed like the channels they guard. Wire
     records exist for every (switch, port) but only switch-facing ports
     consult them. *)
  wire_faults : chan_fault array array;  (* [switch].[port], send side *)
  nic_faults : chan_fault array;  (* [host], host -> attachment switch *)
  notify_faults : ctl_fault array;  (* [switch], DP -> CP *)
  cmd_faults : ctl_fault array;  (* [switch], observer -> CP *)
  report_faults : ctl_fault array;  (* [switch], CP -> observer *)
  notif_chan_drops : int array;  (* [switch]: config bernoulli losses *)
  (* Tracing: every instrumented entity owns an emitter with a stable
     source id assigned in construction order (mirroring the engine
     source-id discipline); [tr_emitters] lists them with their owning
     shard, in attach order. All detached until {!attach_trace}. *)
  mutable tr_emitters : (int * Trace.emitter) list;
  tr_nic_send : Trace.emitter array;  (* [host], NIC send/drop (hot path of {!send}) *)
  tr_epoch : Trace.emitter;  (* runtime epoch barriers, shard 0 *)
  tr_update : Trace.emitter array;  (* [switch], update lifecycle events *)
  (* Per-switch command posting (observer/controller -> CP), shared by
     snapshot initiations and forwarding-update delivery. *)
  mutable cmd_posts : ((unit -> unit) -> unit) array;
  mutable tracer : Trace.t option;
}

(* Reserved stable source ids; the rest are assigned in deterministic
   construction order (per-port wire channels, per-switch cmd/report
   channels, per-host NIC channels). *)
let src_global = 0
let first_free_src = 1

(* Which internal (in_port -> out_port) channels the routing configuration
   can actually exercise, per switch. Unused channels never carry snapshot
   markers and must be excluded from completion consideration (§6). *)
let compute_utilized topo routing =
  let n_sw = Topology.n_switches topo in
  let tbl = Array.init n_sw (fun _ -> Hashtbl.create 64) in
  let in_ports = Array.make n_sw [] in
  for dst = 0 to Topology.n_hosts topo - 1 do
    (* Ports through which traffic headed to [dst] can enter each switch. *)
    Array.fill in_ports 0 n_sw [];
    for s = 0 to n_sw - 1 do
      for p = 0 to Topology.ports topo s - 1 do
        match Topology.peer_of topo ~switch:s ~port:p with
        | Some (Topology.Host_port h) when h <> dst ->
            in_ports.(s) <- p :: in_ports.(s)
        | Some (Topology.Switch_port (s', p')) ->
            let outs = Routing.candidates routing ~switch:s' ~dst_host:dst in
            if Array.exists (fun q -> q = p') outs then
              in_ports.(s) <- p :: in_ports.(s)
        | Some (Topology.Host_port _) | None -> ()
      done
    done;
    for s = 0 to n_sw - 1 do
      let outs = Routing.candidates routing ~switch:s ~dst_host:dst in
      Array.iter
        (fun out ->
          List.iter
            (fun inp -> if inp <> out then Hashtbl.replace tbl.(s) (inp, out) ())
            in_ports.(s))
        outs
    done
  done;
  tbl

(* Undirected switch-switch edges, weighted by link propagation latency. *)
let switch_edges topo =
  let acc = ref [] in
  for s = 0 to Topology.n_switches topo - 1 do
    List.iter
      (fun (p, s', _p') ->
        if s < s' then
          let lat =
            match Topology.link_of topo ~switch:s ~port:p with
            | Some l -> l.Topology.latency
            | None -> 0
          in
          acc := (s, s', lat) :: !acc)
      (Topology.switch_neighbors topo s)
  done;
  !acc

(* Undirected switch-switch edges, weighted by expected communication
   volume (link bandwidth in Gb/s, floored at 1) — the cost function the
   partitioner minimizes across the cut. A 100 G fabric link costs 100x
   a 1 G edge link, so the refinement pass pushes the cut onto the
   cheapest (least-trafficked) links. *)
let switch_comm_edges topo =
  let acc = ref [] in
  for s = 0 to Topology.n_switches topo - 1 do
    List.iter
      (fun (p, s', _p') ->
        if s < s' then
          let w =
            match Topology.link_of topo ~switch:s ~port:p with
            | Some l -> 1 + int_of_float (l.Topology.bandwidth_bps /. 1e9)
            | None -> 1
          in
          acc := (s, s', w) :: !acc)
      (Topology.switch_neighbors topo s)
  done;
  !acc

(* Directional lookahead matrix: L(j,i) is the smallest delay any
   message from shard j to shard i can have. The producer->consumer
   channels are exactly: cut wire links (both directions), host NIC
   links whose attachment switch left shard 0 (the workload sends from
   shard 0), the observer->CP command channel (0 -> CP shard) and the
   CP->observer report channel (CP shard -> 0), which exist for every
   off-zero control plane. Pairs with no channel stay [None]: their
   epochs are unconstrained by each other. *)
let compute_lookahead_matrix (cfg : Config.t) topo ~shard_of ~n_shards ~edges =
  let m = Array.make_matrix n_shards n_shards None in
  let any = ref false in
  let upd j i l =
    if j <> i then begin
      any := true;
      if l <= 0 then
        invalid_arg
          "Net.create: sharding needs positive delay on every cross-shard \
           channel (zero-latency cut link?)";
      match m.(j).(i) with
      | Some x when x <= l -> ()
      | _ -> m.(j).(i) <- Some l
    end
  in
  List.iter
    (fun (u, v, l) ->
      let a = shard_of.(u) and b = shard_of.(v) in
      if a <> b then begin
        upd a b l;
        upd b a l
      end)
    edges;
  for h = 0 to Topology.n_hosts topo - 1 do
    let sw, port = Topology.host_attachment topo ~host:h in
    if shard_of.(sw) <> 0 then
      match Topology.link_of topo ~switch:sw ~port with
      | Some l -> upd 0 shard_of.(sw) l.Topology.latency
      | None -> ()
  done;
  for s = 0 to Topology.n_switches topo - 1 do
    let k = shard_of.(s) in
    if k <> 0 then begin
      upd 0 k cfg.Config.cmd_latency;
      upd k 0 cfg.Config.report_latency
    end
  done;
  if not !any then
    invalid_arg "Net.create: sharded run with no cross-shard interaction";
  Shard.Lookahead.of_matrix m

(* Deliver a drained cross-shard message into consumer shard [j]. *)
let deliver_msg engines j = function
  | Pkt { chan; pkt; at } ->
      Ring.push chan.rx_ring pkt;
      Engine.schedule_src_unit engines.(j) ~src:chan.rx_src ~at chan.rx_on
  | Ctl { c_src; c_at; c_run } ->
      Engine.schedule_src_unit engines.(j) ~src:c_src ~at:c_at c_run

let drain_shard t j =
  (* Producer order is fixed (ascending shard id) so the drain sequence is
     deterministic; per-source order only depends on the single producing
     shard's own push order, which FIFO mailboxes preserve. *)
  for p = 0 to t.n_shards - 1 do
    if p <> j then Mailbox.drain t.mailboxes.(p).(j) (deliver_msg t.engines j)
  done

(* Route a control message to [shard] under stable source [src]. Producer
   is the caller's shard ([from_shard]); same-shard messages schedule
   directly. *)
let post_ctl t ~from_shard ~shard ~src ~at run =
  if from_shard = shard then Engine.schedule_src_unit t.engines.(shard) ~src ~at run
  else Mailbox.push t.mailboxes.(from_shard).(shard) (Ctl { c_src = src; c_at = at; c_run = run })

(* ------------------------------------------------------------------ *)
(* Topology validation.

   [create] wires channels straight from the topology's wiring arrays; a
   malformed topology (a host attachment with no link behind it, a
   switch port whose peer does not point back) would otherwise surface
   as an anonymous crash deep inside construction. Validation runs first
   and reports the defect as a typed error before any simulation state
   exists. *)
(* ------------------------------------------------------------------ *)

type topo_error =
  | Missing_host_link of { host : int; switch : int; port : int }
  | Asymmetric_link of { switch : int; port : int; peer_switch : int; peer_port : int }

exception Invalid_topology of topo_error

let topo_error_to_string = function
  | Missing_host_link { host; switch; port } ->
      Printf.sprintf
        "host %d attaches at switch %d port %d, but that port carries no \
         host link"
        host switch port
  | Asymmetric_link { switch; port; peer_switch; peer_port } ->
      Printf.sprintf
        "switch %d port %d claims peer switch %d port %d, which does not \
         point back"
        switch port peer_switch peer_port

let () =
  Printexc.register_printer (function
    | Invalid_topology e -> Some ("Net.Invalid_topology: " ^ topo_error_to_string e)
    | _ -> None)

let validate topo =
  let n_sw = Topology.n_switches topo in
  let bad = ref None in
  let fail e = if !bad = None then bad := Some e in
  for h = 0 to Topology.n_hosts topo - 1 do
    let sw, port = Topology.host_attachment topo ~host:h in
    let in_range =
      sw >= 0 && sw < n_sw && port >= 0 && port < Topology.ports topo sw
    in
    let ok =
      in_range
      && (match Topology.peer_of topo ~switch:sw ~port with
         | Some (Topology.Host_port h') -> h' = h
         | Some (Topology.Switch_port _) | None -> false)
      && Topology.link_of topo ~switch:sw ~port <> None
    in
    if not ok then fail (Missing_host_link { host = h; switch = sw; port })
  done;
  for s = 0 to n_sw - 1 do
    List.iter
      (fun (p, s', p') ->
        let points_back =
          s' >= 0 && s' < n_sw && p' >= 0
          && p' < Topology.ports topo s'
          && (match Topology.peer_of topo ~switch:s' ~port:p' with
             | Some (Topology.Switch_port (s'', p'')) -> s'' = s && p'' = p
             | Some (Topology.Host_port _) | None -> false)
        in
        if not points_back then
          fail (Asymmetric_link { switch = s; port = p; peer_switch = s'; peer_port = p' }))
      (Topology.switch_neighbors topo s)
  done;
  match !bad with None -> Ok () | Some e -> Error e

let create ?(cfg = Config.default) ?(shards = 1) topo =
  (match validate topo with
  | Ok () -> ()
  | Error e -> raise (Invalid_topology e));
  let n_sw = Topology.n_switches topo in
  let edges = switch_edges topo in
  let shard_of =
    if shards <= 1 then Array.make n_sw 0
    else
      Partition.compute_refined ~n_nodes:n_sw
        ~edges:(switch_comm_edges topo) ~parts:shards
  in
  let n_shards = 1 + Array.fold_left Stdlib.max 0 shard_of in
  let par =
    if n_shards = 1 then None
    else
      Some
        {
          par_la = compute_lookahead_matrix cfg topo ~shard_of ~n_shards ~edges;
          par_report =
            Partition.quality ~n_nodes:n_sw ~edges:(switch_comm_edges topo)
              ~parts:n_shards ~assign:shard_of;
        }
  in
  let lookahead =
    match par with
    | None -> Time.zero
    | Some { par_la; _ } -> (
        match Shard.Lookahead.min_value par_la with
        | Some l -> l
        | None -> Time.zero)
  in
  (* Pre-size the event queues: steady state holds a few events per port. *)
  let engines = Array.init n_shards (fun _ -> Engine.create ~capacity:1024 ()) in
  let engine0 = engines.(0) in
  let master_rng = Rng.create cfg.Config.seed in
  let routing = Routing.compute topo in
  let disabled = cfg.Config.snapshot_disabled_switches in
  let enabled s = not (List.mem s disabled) in
  let pktgens = Array.init n_shards (fun _ -> Packet.Gen.create ()) in
  let mailboxes =
    Array.init n_shards (fun _ -> Array.init n_shards (fun _ -> Mailbox.create ()))
  in
  let obs =
    Observer.create ~engine:engine0 ~lead_time:cfg.Config.observer_lead_time
      ~retry_timeout:cfg.Config.observer_retry_timeout
      ~max_retries:cfg.Config.observer_max_retries
      ?retain:cfg.Config.observer_retain ()
  in
  let ptp = Ptp.create ~profile:cfg.Config.ptp ~rng:(Rng.split master_rng) engine0 in
  (* Stable source ids, assigned in fixed construction order so they are
     identical for every shard count. *)
  let next_src = ref first_free_src in
  let fresh_src () =
    let s = !next_src in
    incr next_src;
    s
  in
  (* Wire receive channels: one per switch-facing port, owned by the
     receiving switch's shard. *)
  let rx_chans =
    Array.init n_sw (fun s ->
        Array.init (Topology.ports topo s) (fun p ->
            match Topology.peer_of topo ~switch:s ~port:p with
            | Some (Topology.Switch_port _) ->
                Some
                  {
                    rx_src = fresh_src ();
                    rx_shard = shard_of.(s);
                    rx_ring = Ring.create ();
                    rx_on = ignore;
                  }
            | Some (Topology.Host_port _) | None -> None))
  in
  let cmd_src = Array.init n_sw (fun _ -> fresh_src ()) in
  let report_src = Array.init n_sw (fun _ -> fresh_src ()) in
  (* NIC arrival channels, owned by the attachment switch's shard. *)
  let host_txs =
    Array.init (Topology.n_hosts topo) (fun h ->
        let attach_sw, attach_port = Topology.host_attachment topo ~host:h in
        let link =
          match Topology.link_of topo ~switch:attach_sw ~port:attach_port with
          | Some l -> l
          | None ->
              raise
                (Invalid_topology
                   (Missing_host_link { host = h; switch = attach_sw; port = attach_port }))
        in
        ignore attach_port;
        {
          link;
          busy_until = Time.zero;
          rx =
            {
              rx_src = fresh_src ();
              rx_shard = shard_of.(attach_sw);
              rx_ring = Ring.create ();
              rx_on = ignore;
            };
          last_size = -1;
          last_ser = Time.zero;
        })
  in
  (* Per-entity RNG streams, split in fixed order (switch-major): the
     draw sequence each entity sees is then independent of how entities
     on different shards interleave. *)
  let selector_rngs = Array.init n_sw (fun _ -> Rng.split master_rng) in
  let notify_rngs = Array.init n_sw (fun _ -> Rng.split master_rng) in
  let cp_rngs = Array.init n_sw (fun _ -> Rng.split master_rng) in
  let clock_rngs = Array.init n_sw (fun _ -> Rng.split master_rng) in
  (* App streams are split only when apps are configured, so an apps-free
     run draws exactly the same streams as before the app subsystem
     existed (digest stability across versions and configs). *)
  let app_rngs =
    if cfg.Config.apps = None then [||]
    else Array.init n_sw (fun _ -> Rng.split master_rng)
  in
  (* Trace emitters live in their own stable source-id space, assigned in
     fixed construction order (same discipline as [fresh_src]) so the ids
     — and hence the merged-trace digest — are identical at every shard
     count. [detached] is a shared placeholder for host-facing ports that
     never carry wire events. *)
  let next_tsrc = ref 0 in
  let tr_ems = ref [] in
  let new_emitter shard =
    let e = Trace.make_emitter ~src:!next_tsrc in
    incr next_tsrc;
    tr_ems := (shard, e) :: !tr_ems;
    e
  in
  let tr_detached = Trace.make_emitter ~src:(-1) in
  let wire_emitters () =
    Array.init n_sw (fun s ->
        Array.init (Topology.ports topo s) (fun p ->
            match Topology.peer_of topo ~switch:s ~port:p with
            | Some (Topology.Switch_port _) -> new_emitter shard_of.(s)
            | Some (Topology.Host_port _) | None -> tr_detached))
  in
  let tr_wire_send = wire_emitters () in
  (* Receive-side wire emitters, indexed by the *receiving* endpoint. *)
  let tr_wire_recv = wire_emitters () in
  let tr_nic_send =
    Array.init (Topology.n_hosts topo) (fun _ -> new_emitter 0)
  in
  let tr_nic_recv =
    Array.init (Topology.n_hosts topo) (fun h ->
        let sw, _ = Topology.host_attachment topo ~host:h in
        new_emitter shard_of.(sw))
  in
  let tr_notify = Array.init n_sw (fun s -> new_emitter shard_of.(s)) in
  let tr_cmd_send = Array.init n_sw (fun _ -> new_emitter 0) in
  let tr_cmd_recv = Array.init n_sw (fun s -> new_emitter shard_of.(s)) in
  let tr_rep_send = Array.init n_sw (fun s -> new_emitter shard_of.(s)) in
  let tr_rep_recv = Array.init n_sw (fun _ -> new_emitter 0) in
  let tr_obs = new_emitter 0 in
  let tr_epoch = new_emitter 0 in
  let tr_update = Array.init n_sw (fun s -> new_emitter shard_of.(s)) in
  let t =
    {
      engines;
      n_shards;
      shard_of;
      lookahead;
      par;
      shard_stats = Shard.no_stats;
      timed_epochs = false;
      mailboxes;
      master_rng;
      topo;
      routing;
      cfg;
      switches = [||];
      cps = [||];
      obs;
      ptp;
      pktgens;
      host_txs;
      deliver_cbs = [];
      delivered = Array.make n_shards 0;
      next_flow = 1;
      globals = [];
      global_seq = 0;
      wire_faults =
        Array.init n_sw (fun s ->
            Array.init (Topology.ports topo s) (fun _ -> fresh_chan_fault ()));
      nic_faults =
        Array.init (Topology.n_hosts topo) (fun _ -> fresh_chan_fault ());
      notify_faults = Array.init n_sw (fun _ -> fresh_ctl_fault ());
      cmd_faults = Array.init n_sw (fun _ -> fresh_ctl_fault ());
      report_faults = Array.init n_sw (fun _ -> fresh_ctl_fault ());
      notif_chan_drops = Array.make n_sw 0;
      tr_nic_send;
      tr_emitters = [];
      tr_epoch;
      tr_update;
      cmd_posts = [||];
      tracer = None;
    }
  in
  (* Channel-state exclusions (and the routing-utilization table behind
     them) only matter when the variant collects channel state: without
     it the CP tracker completes units on their own ID alone and never
     consults the inclusion mask, so the O(hosts * switches * ports)
     utilization sweep is pure waste at scale. *)
  let channel_state = cfg.Config.unit_cfg.Snapshot_unit.channel_state in
  let utilized = if channel_state then compute_utilized topo routing else [||] in
  (* Flat data-plane state: one arena per shard keeps every resident
     switch's registers and snapshot slots in two contiguous Bigarray
     planes owned by that shard's domain. *)
  let arenas = Array.init n_shards (fun _ -> Arena.create ()) in
  (* Host attachment lookup, built once and shared by every switch. *)
  let n_hosts = Topology.n_hosts topo in
  let attach_sw_arr = Array.make n_hosts 0 in
  let attach_port_arr = Array.make n_hosts 0 in
  for h = 0 to n_hosts - 1 do
    let s, p = Topology.host_attachment topo ~host:h in
    attach_sw_arr.(h) <- s;
    attach_port_arr.(h) <- p
  done;
  let host_attach = (attach_sw_arr, attach_port_arr) in
  (* Data planes. *)
  let sw_acc = ref [] in
  for s = 0 to n_sw - 1 do
    let shard = shard_of.(s) in
    let eng = engines.(shard) in
    let nrng = notify_rngs.(s) in
    let ntr = tr_notify.(s) in
    let notify n =
      (* DP -> CPU channel: latency plus possible loss, always on the
         switch's own shard. Loss is drawn from the switch's private
         stream so the draw order is a shard-local property. The config
         bernoulli is always drawn first — injected fault processes then
         cannot shift the stream the steady-state model consumes. *)
      if Rng.bernoulli nrng cfg.Config.notify_drop_prob then begin
        t.notif_chan_drops.(s) <- t.notif_chan_drops.(s) + 1;
        if Trace.enabled ntr then
          Trace.emit ntr ~at:(Engine.now eng)
            (Trace.Chan_drop { ch = Trace.Notify; sw = s; port = -1 })
      end
      else if ctl_fault_drops t.notify_faults.(s) then begin
        if Trace.enabled ntr then
          Trace.emit ntr ~at:(Engine.now eng)
            (Trace.Chan_drop { ch = Trace.Notify; sw = s; port = -1 })
      end
      else begin
        if Trace.enabled ntr then
          Trace.emit ntr ~at:(Engine.now eng)
            (Trace.Chan_send
               {
                 ch = Trace.Notify;
                 sw = s;
                 port = -1;
                 arrival = Time.add (Engine.now eng) cfg.Config.notify_latency;
               });
        Engine.schedule_after_unit eng ~delay:cfg.Config.notify_latency (fun () ->
            if Trace.enabled ntr then
              Trace.emit ntr ~at:(Engine.now eng)
                (Trace.Chan_deliver { ch = Trace.Notify; sw = s; port = -1 });
            Control_plane.deliver_notification t.cps.(s) n)
      end
    in
    let deliver_host ~host pkt =
      t.delivered.(shard) <- t.delivered.(shard) + 1;
      List.iter (fun f -> f ~host pkt) t.deliver_cbs;
      (* Delivered packets are linear: nothing downstream holds a
         reference once the callbacks return, so recycle into the
         delivering shard's pool. *)
      Packet.Gen.release t.pktgens.(shard) pkt
    in
    sw_acc :=
      Switch.create ~arena:arenas.(shard) ~host_attach
        ?app_rng:(if Array.length app_rngs = 0 then None else Some app_rngs.(s))
        ~id:s ~engine:eng ~rng:selector_rngs.(s) ~cfg ~topo ~routing
        ~pktgen:t.pktgens.(shard) ~notify ~deliver_host ~enabled:(enabled s) ()
      :: !sw_acc
  done;
  t.switches <- Array.of_list (List.rev !sw_acc);
  (* One dense index per snapshot unit, carried from the data plane to
     the observer in every notification and report. Each switch holds one
     contiguous range (its tracker's array); snapshot-enabled switches
     come first, in the order the observer registers them, so a disabled
     switch's units index past every round's slots. *)
  let next_ix = ref 0 in
  let number s =
    List.iter
      (fun u ->
        Snapshot_unit.set_index u !next_ix;
        incr next_ix)
      (Switch.units t.switches.(s))
  in
  for s = 0 to n_sw - 1 do
    if enabled s then number s
  done;
  for s = 0 to n_sw - 1 do
    if not (enabled s) then number s
  done;
  (* Receive channels: pop one packet per arrival event and feed the
     receiving switch. *)
  for s = 0 to n_sw - 1 do
    Array.iteri
      (fun p chan ->
        match chan with
        | Some c ->
            (* The deliver event names the *sending* endpoint, matching
               its Chan_send; the emitter is owned by the receiving
               shard. *)
            let snd_s, snd_p =
              match Topology.peer_of topo ~switch:s ~port:p with
              | Some (Topology.Switch_port (s', p')) -> (s', p')
              | Some (Topology.Host_port _) | None -> (-1, -1)
            in
            let rtr = tr_wire_recv.(s).(p) in
            let reng = engines.(c.rx_shard) in
            c.rx_on <-
              (fun () ->
                let pkt = Ring.pop_exn c.rx_ring in
                if Trace.enabled rtr then
                  Trace.emit rtr ~at:(Engine.now reng)
                    (Trace.Chan_deliver
                       { ch = Trace.Wire; sw = snd_s; port = snd_p });
                Switch.receive t.switches.(s) ~port:p pkt)
        | None -> ())
      rx_chans.(s)
  done;
  Array.iteri
    (fun h tx ->
      let attach_sw, attach_port = Topology.host_attachment topo ~host:h in
      let rtr = tr_nic_recv.(h) in
      let reng = engines.(tx.rx.rx_shard) in
      tx.rx.rx_on <-
        (fun () ->
          let pkt = Ring.pop_exn tx.rx.rx_ring in
          if Trace.enabled rtr then
            Trace.emit rtr ~at:(Engine.now reng)
              (Trace.Chan_deliver { ch = Trace.Nic; sw = h; port = -1 });
          Switch.receive t.switches.(attach_sw) ~port:attach_port pkt))
    t.host_txs;
  (* Outbound wire hand-offs: same-shard peers schedule directly on the
     receiver's engine; cut links go through the mailbox. Each closure
     first consults the sender-side fault record — a single flag test on
     the fault-free path. *)
  for s = 0 to n_sw - 1 do
    List.iter
      (fun (p, s', p') ->
        match rx_chans.(s').(p') with
        | Some chan ->
            let deliver =
              if shard_of.(s) = chan.rx_shard then (fun pkt ~arrival ->
                Ring.push chan.rx_ring pkt;
                Engine.schedule_src_unit engines.(chan.rx_shard)
                  ~src:chan.rx_src ~at:arrival chan.rx_on)
              else begin
                let mb = mailboxes.(shard_of.(s)).(chan.rx_shard) in
                fun pkt ~arrival -> Mailbox.push mb (Pkt { chan; pkt; at = arrival })
              end
            in
            let wf = t.wire_faults.(s).(p) in
            let sender_shard = shard_of.(s) in
            let str = tr_wire_send.(s).(p) in
            let seng = engines.(sender_shard) in
            Switch.set_wire_out t.switches.(s) ~port:p (fun pkt ~arrival ->
                if not wf.cf_active then begin
                  if Trace.enabled str then
                    Trace.emit str ~at:(Engine.now seng)
                      (Trace.Chan_send
                         { ch = Trace.Wire; sw = s; port = p; arrival });
                  deliver pkt ~arrival
                end
                else if
                  (not wf.cf_up)
                  || (match wf.cf_drop with Some d -> d () | None -> false)
                then begin
                  wf.cf_drops <- wf.cf_drops + 1;
                  if Trace.enabled str then
                    Trace.emit str ~at:(Engine.now seng)
                      (Trace.Chan_drop { ch = Trace.Wire; sw = s; port = p });
                  Packet.Gen.release t.pktgens.(sender_shard) pkt
                end
                else begin
                  let a = Time.add arrival wf.cf_extra in
                  let a = if a < wf.cf_last_arrival then wf.cf_last_arrival else a in
                  wf.cf_last_arrival <- a;
                  if Trace.enabled str then
                    Trace.emit str ~at:(Engine.now seng)
                      (Trace.Chan_send
                         { ch = Trace.Wire; sw = s; port = p; arrival = a });
                  deliver pkt ~arrival:a
                end)
        | None ->
            raise
              (Invalid_topology
                 (Asymmetric_link { switch = s; port = p; peer_switch = s'; peer_port = p' })))
      (Topology.switch_neighbors topo s)
  done;
  (* Control planes (only for snapshot-enabled switches' protocol duties,
     but every switch gets one so clocks/polling stay uniform). *)
  let cp_acc = ref [] in
  for s = 0 to n_sw - 1 do
    let shard = shard_of.(s) in
    let eng = engines.(shard) in
    let clock = Clock.create () in
    Ptp.attach_on ptp ~engine:eng ~rng:clock_rngs.(s) clock;
    let ports = Switch.connected_ports t.switches.(s) in
    let cos_levels = cfg.Config.cos_levels in
    let specs =
      List.concat_map
        (fun p ->
          let ing = Switch.ingress_unit t.switches.(s) ~port:p in
          let egr = Switch.egress_unit t.switches.(s) ~port:p in
          (* Ingress: single external neighbor at index 1; excluded unless
             the upstream is a snapshot-enabled switch whose routing can
             send traffic this way. *)
          let ingress_excl =
            if not channel_state then []
            else
              match Topology.peer_of topo ~switch:s ~port:p with
              | Some (Topology.Switch_port (s', p')) when enabled s' ->
                  let feeds =
                    List.exists
                      (fun dst ->
                        Array.exists (fun q -> q = p')
                          (Routing.candidates routing ~switch:s' ~dst_host:dst))
                      (List.init (Topology.n_hosts topo) (fun h -> h))
                  in
                  if feeds then [] else [ 1 ]
              | Some (Topology.Switch_port _) | Some (Topology.Host_port _)
              | None ->
                  [ 1 ]
          in
          (* Egress: internal channels from every (in port, CoS); excluded
             when the pair is not utilized by routing or the CoS is
             unused. *)
          let n_ports = Topology.ports topo s in
          let egress_excl = ref [] in
          if channel_state then
            for inp = 0 to n_ports - 1 do
              for cos = 0 to cos_levels - 1 do
                let idx = 1 + (inp * cos_levels) + cos in
                let used =
                  Hashtbl.mem utilized.(s) (inp, p)
                  && List.mem cos cfg.Config.used_cos
                  && Topology.peer_of topo ~switch:s ~port:inp <> None
                in
                if not used then egress_excl := idx :: !egress_excl
              done
            done;
          [
            { Cp_tracker.unit_ = ing; excluded_neighbors = ingress_excl };
            { Cp_tracker.unit_ = egr; excluded_neighbors = !egress_excl };
          ])
        ports
      (* App units join the same tracker with the exclusions their app
         declared (heavy-hitter cells have no in-flight component and
         exclude their data channel; chain mids/tails must wait for the
         upstream replica's marker). *)
      @ List.map
          (fun (u, excl) ->
            {
              Cp_tracker.unit_ = u;
              excluded_neighbors = (if channel_state then excl else []);
            })
          (Switch.app_unit_specs t.switches.(s))
    in
    let inject ~port ~sid_wrapped ~ghost_sid =
      Switch.inject_initiation t.switches.(s) ~port ~sid_wrapped ~ghost_sid
    in
    let flood () = Switch.cp_broadcast t.switches.(s) in
    let rsrc = report_src.(s) in
    let rstr = tr_rep_send.(s) and rrtr = tr_rep_recv.(s) in
    let report r =
      (* CP -> observer shipping: a delayed message on the report channel
         of this switch, landing on shard 0 where the observer lives. The
         fault hook runs on the CP's shard (send side). *)
      if ctl_fault_drops t.report_faults.(s) then begin
        if Trace.enabled rstr then
          Trace.emit rstr ~at:(Engine.now eng)
            (Trace.Chan_drop { ch = Trace.Report; sw = s; port = -1 })
      end
      else begin
        let at = Time.add (Engine.now eng) cfg.Config.report_latency in
        if Trace.enabled rstr then
          Trace.emit rstr ~at:(Engine.now eng)
            (Trace.Chan_send { ch = Trace.Report; sw = s; port = -1; arrival = at });
        post_ctl t ~from_shard:shard ~shard:0 ~src:rsrc ~at (fun () ->
            if Trace.enabled rrtr then
              Trace.emit rrtr ~at:(Engine.now engine0)
                (Trace.Chan_deliver { ch = Trace.Report; sw = s; port = -1 });
            Observer.on_report t.obs r)
      end
    in
    cp_acc :=
      Control_plane.create ~switch_id:s ~engine:eng ~rng:cp_rngs.(s) ~cfg ~clock
        ~units:specs ~inject ~flood ~ports ~report
      :: !cp_acc
  done;
  t.cps <- Array.of_list (List.rev !cp_acc);
  (* Observer/controller -> CP command channel, one sender per switch:
     fault hook and send trace on shard 0 (where the observer and the
     update controller live), delivery on the CP's shard under the
     switch's stable cmd source. Snapshot initiations and forwarding
     flow-mods both ride this channel; they interleave deterministically
     because sends happen in shard-0 event execution order. *)
  t.cmd_posts <-
    Array.init n_sw (fun s ->
        let csrc = cmd_src.(s) and cshard = shard_of.(s) in
        let cstr = tr_cmd_send.(s) and crtr = tr_cmd_recv.(s) in
        let ceng = engines.(cshard) in
        fun run ->
          if ctl_fault_drops t.cmd_faults.(s) then begin
            if Trace.enabled cstr then
              Trace.emit cstr ~at:(Engine.now engine0)
                (Trace.Chan_drop { ch = Trace.Cmd; sw = s; port = -1 })
          end
          else begin
            let at = Time.add (Engine.now engine0) cfg.Config.cmd_latency in
            if Trace.enabled cstr then
              Trace.emit cstr ~at:(Engine.now engine0)
                (Trace.Chan_send
                   { ch = Trace.Cmd; sw = s; port = -1; arrival = at });
            post_ctl t ~from_shard:0 ~shard:cshard ~src:csrc ~at (fun () ->
                if Trace.enabled crtr then
                  Trace.emit crtr ~at:(Engine.now ceng)
                    (Trace.Chan_deliver { ch = Trace.Cmd; sw = s; port = -1 });
                run ())
          end);
  (* Register snapshot-enabled devices with the observer. Initiation and
     resend requests travel the observer -> CP command channel. *)
  for s = 0 to n_sw - 1 do
    if enabled s then begin
      let units =
        List.map
          (fun u -> (Snapshot_unit.index u, Snapshot_unit.id u))
          (Switch.units t.switches.(s))
      in
      let send_cmd = t.cmd_posts.(s) in
      Observer.register_device obs
        {
          Observer.device_id = s;
          units;
          initiate =
            (fun ~sid ~fire_at ->
              send_cmd (fun () ->
                  Control_plane.schedule_initiation t.cps.(s) ~sid
                    ~fire_at_local:fire_at));
          resend =
            (fun ~sid ->
              send_cmd (fun () -> Control_plane.resend_initiation t.cps.(s) ~sid));
        }
    end
  done;
  (* Snapshot-unit and control-plane emitters come after every channel
     emitter, in switch-major order — still fully deterministic. *)
  for s = 0 to n_sw - 1 do
    List.iter
      (fun u -> Snapshot_unit.set_tracer u (new_emitter shard_of.(s)))
      (Switch.units t.switches.(s))
  done;
  for s = 0 to n_sw - 1 do
    Control_plane.set_tracer t.cps.(s) (new_emitter shard_of.(s))
  done;
  Observer.set_tracer obs tr_obs;
  t.tr_emitters <- List.rev !tr_ems;
  t

let engine t = t.engines.(0)
let now t = Engine.now t.engines.(0)
let n_shards t = t.n_shards
let shard_of_switch t s = t.shard_of.(s)
let lookahead t = Option.map (fun _ -> t.lookahead) t.par
let partition_report t = Option.map (fun p -> p.par_report) t.par
let shard_stats t = Option.map (fun _ -> t.shard_stats) t.par
let set_epoch_timing t on = t.timed_epochs <- on
let topology t = t.topo
let routing t = t.routing
let cfg t = t.cfg
let observer t = t.obs
let switch t s = t.switches.(s)
let control_plane t s = t.cps.(s)

let post_cmd t ~switch run =
  if switch < 0 || switch >= Array.length t.cmd_posts then
    invalid_arg "Net.post_cmd: unknown switch";
  t.cmd_posts.(switch) run

let update_emitter t ~switch = t.tr_update.(switch)
let switch_now t ~switch = Engine.now t.engines.(t.shard_of.(switch))
let fresh_rng t = Rng.split t.master_rng

let fresh_flow_id t =
  let f = t.next_flow in
  t.next_flow <- f + 1;
  f

(* Globals: run before every other event at their instant. Serial mode
   realizes that with source id 0 (which sorts first); sharded mode keeps
   a side list executed by the epoch driver with all domains parked. *)
let schedule_global t ~at run =
  if t.n_shards = 1 then
    Engine.schedule_src_unit t.engines.(0) ~src:src_global ~at run
  else begin
    let g = { g_at = at; g_seq = t.global_seq; g_run = run } in
    t.global_seq <- t.global_seq + 1;
    let rec insert = function
      | [] -> [ g ]
      | g' :: rest ->
          if (g.g_at, g.g_seq) < (g'.g_at, g'.g_seq) then g :: g' :: rest
          else g' :: insert rest
    in
    t.globals <- insert t.globals
  end

let run_until t deadline =
  match t.par with
  | None -> Engine.run_until t.engines.(0) deadline
  | Some { par_la = lookahead; _ } ->
    let on_epoch =
      if Trace.enabled t.tr_epoch then (fun b ->
        Trace.emit t.tr_epoch ~at:b (Trace.Epoch { shard = 0; bound = b }))
      else ignore
    in
    (* Messages posted while no epoch driver was running — workload
       registration calling [send] at construction time, or control
       messages emitted between two [run_until] calls — sit in the
       mailboxes where the first epoch's publish cannot see them: the
       publish reads engine queues only, so a shard could compute a
       bound past an in-flight arrival. Drain everything into the
       engines first (single-threaded here, so this is race-free). *)
    for j = 0 to t.n_shards - 1 do
      drain_shard t j
    done;
    let s =
      Shard.run_until ~on_epoch ~timed:t.timed_epochs ~engines:t.engines
        ~lookahead ~deadline
        ~drain:(fun j -> drain_shard t j)
        ~next_global:(fun () ->
          match t.globals with [] -> None | g :: _ -> Some g.g_at)
        ~run_global:(fun () ->
          match t.globals with
          | [] -> invalid_arg "Net: no pending global action"
          | g :: rest ->
              t.globals <- rest;
              g.g_run ())
        ()
    in
    let acc = t.shard_stats in
    t.shard_stats <-
      {
        Shard.epochs = acc.Shard.epochs + s.Shard.epochs;
        global_rounds = acc.Shard.global_rounds + s.Shard.global_rounds;
        wall_ns = acc.Shard.wall_ns +. s.Shard.wall_ns;
        barrier_wait_ns = acc.Shard.barrier_wait_ns +. s.Shard.barrier_wait_ns;
        workers = s.Shard.workers;
        queue_high_water =
          Stdlib.max acc.Shard.queue_high_water s.Shard.queue_high_water;
      }

let send t ?(cos = 0) ?flow_id ~src ~dst ~size () =
  if src = dst then invalid_arg "Net.send: src = dst";
  if dst < 0 || dst >= Array.length t.host_txs then
    invalid_arg "Net.send: bad destination host";
  let flow_id =
    match flow_id with Some f -> f | None -> (src * 65_537) + dst
  in
  let tx = t.host_txs.(src) in
  (* The workload runs on shard 0; allocation comes from shard 0's pool
     and the packet is recycled wherever it dies. *)
  let tnow = Engine.now t.engines.(0) in
  let pkt =
    Packet.Gen.alloc t.pktgens.(0) ~flow_id ~src_host:src ~dst_host:dst ~size ~cos
      ~created:tnow
  in
  let start = if tnow >= tx.busy_until then tnow else tx.busy_until in
  (* Keep the division by bandwidth (rather than caching a reciprocal) so
     timing stays bit-identical with the formula used everywhere else; the
     result is memoized per size, which cannot change it. *)
  let ser =
    if size = tx.last_size then tx.last_ser
    else begin
      let s =
        Time.of_ns_float
          (float_of_int (8 * size) /. tx.link.Topology.bandwidth_bps *. 1e9)
      in
      tx.last_size <- size;
      tx.last_ser <- s;
      s
    end
  in
  tx.busy_until <- start + ser;
  let arrival = tx.busy_until + tx.link.Topology.latency in
  let nf = t.nic_faults.(src) in
  if
    nf.cf_active
    && ((not nf.cf_up) || (match nf.cf_drop with Some d -> d () | None -> false))
  then begin
    (* The NIC still serialized the packet (busy_until advanced); it is
       lost in transit on the host link. *)
    nf.cf_drops <- nf.cf_drops + 1;
    (let str = t.tr_nic_send.(src) in
     if Trace.enabled str then
       Trace.emit str ~at:tnow
         (Trace.Chan_drop { ch = Trace.Nic; sw = src; port = -1 }));
    Packet.Gen.release t.pktgens.(0) pkt
  end
  else begin
    let arrival =
      if not nf.cf_active then arrival
      else begin
        let a = Time.add arrival nf.cf_extra in
        let a = if a < nf.cf_last_arrival then nf.cf_last_arrival else a in
        nf.cf_last_arrival <- a;
        a
      end
    in
    (let str = t.tr_nic_send.(src) in
     if Trace.enabled str then
       Trace.emit str ~at:tnow
         (Trace.Chan_send { ch = Trace.Nic; sw = src; port = -1; arrival }));
    if tx.rx.rx_shard = 0 then begin
      Ring.push tx.rx.rx_ring pkt;
      Engine.schedule_src_unit t.engines.(0) ~src:tx.rx.rx_src ~at:arrival
        tx.rx.rx_on
    end
    else
      Mailbox.push t.mailboxes.(0).(tx.rx.rx_shard)
        (Pkt { chan = tx.rx; pkt; at = arrival })
  end

let on_deliver t f =
  (* Delivery timing is now observable: stop short-circuiting the final
     link propagation. Register callbacks before injecting traffic —
     packets forwarded while no callback was installed were delivered
     eagerly. *)
  Array.iter (fun sw -> Switch.set_eager_host_delivery sw false) t.switches;
  t.deliver_cbs <- f :: t.deliver_cbs

let delivered t = Array.fold_left ( + ) 0 t.delivered

let events t =
  Array.fold_left (fun acc e -> acc + Engine.processed e) 0 t.engines

let try_take_snapshot t ?at () = Observer.try_take_snapshot t.obs ?at ()
let result t ~sid = Observer.result t.obs ~sid

let sync_spread t ~sid =
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun cp ->
      match Cp_tracker.sync_window (Control_plane.tracker cp) ~sid with
      | Some (a, b) ->
          lo := Stdlib.min !lo a;
          hi := Stdlib.max !hi b
      | None -> ())
    t.cps;
  if !hi >= !lo then Some (Time.sub !hi !lo) else None

let unit_of t (uid : Unit_id.t) = Switch.unit_of t.switches.(uid.Unit_id.switch) uid

let all_unit_ids t =
  Array.to_list t.switches
  |> List.concat_map (fun sw ->
         if Switch.enabled sw then List.map Snapshot_unit.id (Switch.units sw)
         else [])

let read_counter t uid =
  let u = unit_of t uid in
  Counter.read (Snapshot_unit.counter u) ~now:(now t)

let auto_exclude_idle t =
  Array.iter
    (fun sw ->
      if Switch.enabled sw then
        List.iter
          (fun u ->
            let uid = Snapshot_unit.id u in
            (* App units declare their own exclusions at construction;
               traffic-based sweeps must not touch them (a chain
               replica's upstream channel may be legitimately idle until
               the first write, yet completion must wait for it). *)
            if not (Unit_id.is_app uid) then begin
              let traffic = Snapshot_unit.neighbor_traffic u in
              let tr = Control_plane.tracker t.cps.(Switch.id sw) in
              Array.iteri
                (fun n count ->
                  if n > 0 && count = 0 then
                    Cp_tracker.exclude_neighbor tr ~now:(now t) uid n)
                traffic
            end)
          (Switch.units sw))
    t.switches

let total_notif_drops t =
  let socket =
    Array.fold_left
      (fun acc cp -> acc + Control_plane.notif_drops cp + Control_plane.crash_drops cp)
      0 t.cps
  in
  let chan = Array.fold_left ( + ) 0 t.notif_chan_drops in
  let injected =
    Array.fold_left (fun acc xf -> acc + xf.xf_drops) 0 t.notify_faults
  in
  socket + chan + injected

let total_fifo_violations t =
  Array.fold_left
    (fun acc sw ->
      List.fold_left (fun acc u -> acc + Snapshot_unit.fifo_violations u) acc
        (Switch.units sw))
    0 t.switches

let total_queue_drops t =
  Array.fold_left
    (fun acc sw ->
      List.fold_left (fun acc p -> acc + Switch.queue_drops sw ~port:p) acc
        (Switch.connected_ports sw))
    0 t.switches

(* ------------------------------------------------------------------ *)
(* Fault-injection API ({!Speedlight_faults} drives these).

   Every setter mutates state owned by one shard; callers must invoke it
   either before {!run_until} or from an event running on the owning
   shard — {!schedule_on_switch} / {!schedule_at_observer} provide
   exactly that. *)
(* ------------------------------------------------------------------ *)

let wire_fault t ~switch ~port =
  (match Topology.peer_of t.topo ~switch ~port with
  | Some (Topology.Switch_port _) -> ()
  | Some (Topology.Host_port _) | None ->
      invalid_arg "Net: wire faults need a switch-facing port");
  t.wire_faults.(switch).(port)

let set_wire_state t ~switch ~port ~up =
  let cf = wire_fault t ~switch ~port in
  cf.cf_up <- up;
  chan_fault_refresh cf

let set_wire_extra_latency t ~switch ~port ~extra =
  if extra < Time.zero then invalid_arg "Net.set_wire_extra_latency: extra < 0";
  let cf = wire_fault t ~switch ~port in
  cf.cf_extra <- extra;
  chan_fault_refresh cf

let set_wire_drop t ~switch ~port drop =
  let cf = wire_fault t ~switch ~port in
  cf.cf_drop <- drop;
  chan_fault_refresh cf

let wire_link_latency t ~switch ~port =
  ignore (wire_fault t ~switch ~port);
  match Topology.link_of t.topo ~switch ~port with
  | Some l -> l.Topology.latency
  | None -> invalid_arg "Net.wire_link_latency: no link"

let set_nic_state t ~host ~up =
  let cf = t.nic_faults.(host) in
  cf.cf_up <- up;
  chan_fault_refresh cf

let set_nic_extra_latency t ~host ~extra =
  if extra < Time.zero then invalid_arg "Net.set_nic_extra_latency: extra < 0";
  let cf = t.nic_faults.(host) in
  cf.cf_extra <- extra;
  chan_fault_refresh cf

let set_nic_drop t ~host drop =
  let cf = t.nic_faults.(host) in
  cf.cf_drop <- drop;
  chan_fault_refresh cf

let set_notify_drop t ~switch drop = t.notify_faults.(switch).xf_drop <- drop
let set_cmd_drop t ~switch drop = t.cmd_faults.(switch).xf_drop <- drop
let set_report_drop t ~switch drop = t.report_faults.(switch).xf_drop <- drop
let crash_cp t ~switch = Control_plane.crash t.cps.(switch)
let restart_cp t ~switch = Control_plane.restart t.cps.(switch)

let schedule_on_switch t ~switch ~at f =
  Engine.schedule_unit t.engines.(t.shard_of.(switch)) ~at f

(* ------------------------------------------------------------------ *)
(* In-switch applications (lib/apps)                                  *)

let app_stage t ~switch = Switch.app_stage t.switches.(switch)

let chain_head t =
  match t.cfg.Config.apps with
  | Some { Speedlight_apps.Apps.chain = Some c; _ } -> (
      match c.Speedlight_apps.Netchain.replicas with
      | head :: _ -> Some head
      | [] -> None)
  | _ -> None

let chain_write t ~at ~key ~value =
  match chain_head t with
  | None -> invalid_arg "Net.chain_write: no chain configured"
  | Some head ->
      schedule_on_switch t ~switch:head ~at (fun () ->
          match Switch.app_stage t.switches.(head) with
          | Some st -> Speedlight_apps.Apps.Stage.client_write st ~key ~value
          | None -> ())

let schedule_at_observer t ~at f = Engine.schedule_unit t.engines.(0) ~at f

type fault_drops = {
  fd_wire : int;
  fd_nic : int;
  fd_notify : int;
  fd_cmd : int;
  fd_report : int;
  fd_cp : int;
}

let fault_drops t =
  let sum_ctl a = Array.fold_left (fun acc xf -> acc + xf.xf_drops) 0 a in
  {
    fd_wire =
      Array.fold_left
        (fun acc row ->
          Array.fold_left (fun acc cf -> acc + cf.cf_drops) acc row)
        0 t.wire_faults;
    fd_nic = Array.fold_left (fun acc cf -> acc + cf.cf_drops) 0 t.nic_faults;
    fd_notify = sum_ctl t.notify_faults;
    fd_cmd = sum_ctl t.cmd_faults;
    fd_report = sum_ctl t.report_faults;
    fd_cp =
      Array.fold_left (fun acc cp -> acc + Control_plane.crash_drops cp) 0 t.cps;
  }

let injected_drops t =
  let d = fault_drops t in
  d.fd_wire + d.fd_nic + d.fd_notify + d.fd_cmd + d.fd_report + d.fd_cp

(* ------------------------------------------------------------------ *)
(* Tracing & metrics *)
(* ------------------------------------------------------------------ *)

let attach_trace ?limit_per_shard t =
  (match t.tracer with
  | Some _ -> invalid_arg "Net.attach_trace: trace already attached"
  | None -> ());
  let rc = Trace.create ?limit_per_shard ~shards:t.n_shards () in
  (* Attach in the fixed construction order: the per-emitter sequence
     reset makes attach order part of the determinism contract. *)
  List.iter (fun (shard, e) -> Trace.attach rc ~shard e) t.tr_emitters;
  Array.iteri
    (fun i eng ->
      Engine.set_dispatch_hook eng (Some (fun () -> Trace.on_dispatch rc ~shard:i)))
    t.engines;
  t.tracer <- Some rc;
  rc

let detach_trace t =
  match t.tracer with
  | None -> ()
  | Some _ ->
      List.iter (fun (_, e) -> Trace.detach e) t.tr_emitters;
      Array.iter (fun eng -> Engine.set_dispatch_hook eng None) t.engines;
      t.tracer <- None

let trace t = t.tracer

let register_metrics t m =
  let reg name f = Metrics.register m name (fun () -> float_of_int (f ())) in
  reg "net.delivered" (fun () -> delivered t);
  reg "net.engine_events" (fun () -> events t);
  reg "engine.queue_peak" (fun () ->
      Array.fold_left
        (fun acc e -> Stdlib.max acc (Engine.queue_high_water e))
        0 t.engines);
  reg "net.queue_drops" (fun () -> total_queue_drops t);
  reg "net.fifo_violations" (fun () -> total_fifo_violations t);
  reg "net.notif_drops" (fun () -> total_notif_drops t);
  reg "net.injected_drops" (fun () -> injected_drops t);
  reg "cp.notifications" (fun () ->
      Array.fold_left
        (fun acc cp -> acc + Control_plane.notifications_received cp)
        0 t.cps);
  reg "cp.queue_peak" (fun () ->
      Array.fold_left
        (fun acc cp -> Stdlib.max acc (Control_plane.notif_queue_peak cp))
        0 t.cps);
  reg "cp.crashes" (fun () ->
      Array.fold_left (fun acc cp -> acc + Control_plane.crashes cp) 0 t.cps);
  reg "observer.snapshots" (fun () -> Observer.last_sid t.obs);
  reg "observer.outstanding" (fun () -> Observer.outstanding t.obs);
  reg "observer.retries" (fun () -> Observer.retries_sent t.obs);
  reg "trace.events" (fun () ->
      match t.tracer with Some rc -> Trace.events_recorded rc | None -> 0);
  reg "trace.dropped" (fun () ->
      match t.tracer with Some rc -> Trace.dropped rc | None -> 0);
  reg "trace.dispatches" (fun () ->
      match t.tracer with Some rc -> Trace.dispatches rc | None -> 0)
