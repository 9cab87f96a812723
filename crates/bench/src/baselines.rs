//! The paper's baseline key-value access paths (§5.2, §5.4), measured
//! against the RedN offload in Fig 10/11/14/15/16.
//!
//! * **One-sided** (FaRM / Pilaf style): the client issues a READ of the
//!   candidate bucket (or its whole neighborhood), parses it locally, then
//!   a second READ for the value — two network round trips, zero server
//!   CPU.
//! * **Two-sided** (RPC over RDMA): the client SENDs a request; a server
//!   thread picks the completion up (busy-polling or event-driven), walks
//!   the table on the CPU, and WRITEs the value back. One round trip plus
//!   server CPU time.
//! * **VMA** (§5.4): the two-sided path through a kernel-bypass socket
//!   stack — per-packet stack overhead plus two memcpys of the payload
//!   ("to adhere to the sockets API, VMA has to memcpy data from send and
//!   receive buffers").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use redn_core::offloads::hash_lookup::BUCKET_SIZE;
use redn_kv::cuckoo::CuckooTable;
use redn_kv::endpoint::{run_until_cqe, ClientEndpoint};
use rnic_sim::cq::Cqe;
use rnic_sim::error::{Error, Result};
use rnic_sim::ids::{CqId, NodeId, ProcessId, QpId};
use rnic_sim::mem::Access;
use rnic_sim::qp::QpConfig;
use rnic_sim::sim::{ListenMode, Simulator};
use rnic_sim::time::Time;
use rnic_sim::wqe::WorkRequest;

use crate::hopscotch::{HopscotchTable, NEIGHBORHOOD};

// ---------------------------------------------------------------------
// One-sided baseline
// ---------------------------------------------------------------------

/// FaRM-style one-sided lookup client.
pub struct OneSidedClient {
    /// The endpoint, connected to a passive server QP that no server
    /// process ever touches: one-sided needs no server logic at all.
    pub ep: ClientEndpoint,
    /// Scratch buffer holding the probed buckets (one neighborhood).
    meta_buf: u64,
    meta_lkey: u32,
    /// Table geometry (mirrored client-side, as FaRM clients cache it).
    table_base: u64,
    table_rkey: u32,
    nbuckets: u64,
    value_rkey: u32,
    value_len: u32,
}

impl OneSidedClient {
    /// Build a one-sided client on `node` for `table`, connected to a
    /// passive QP on the table's node.
    pub fn create(
        sim: &mut Simulator,
        node: NodeId,
        table: &HopscotchTable,
    ) -> Result<OneSidedClient> {
        let ep = ClientEndpoint::create(sim, node, table.heap.slot_len)?;
        let meta_len = NEIGHBORHOOD * BUCKET_SIZE;
        let meta_buf = sim.alloc(node, meta_len, 8)?;
        let meta_mr = sim.register_mr(node, meta_buf, meta_len, Access::all())?;
        let server_cq = sim.create_cq(table.node, 16)?;
        let server_qp = sim.create_qp(table.node, QpConfig::new(server_cq))?;
        sim.connect_qps(ep.qp, server_qp)?;
        Ok(OneSidedClient {
            ep,
            meta_buf,
            meta_lkey: meta_mr.lkey,
            table_base: table.base,
            table_rkey: table.mr().rkey,
            nbuckets: table.nbuckets,
            value_rkey: table.heap.mr().rkey,
            value_len: table.heap.slot_len,
        })
    }

    /// Synchronous get: returns `(latency, value_found)`. Each candidate
    /// costs one READ of `span` buckets starting at it — [`NEIGHBORHOOD`]
    /// for FaRM's hopscotch neighborhood (§5.2), 1 for the §5.4 cuckoo
    /// probe — and a hit costs one more READ for the value. The
    /// client-side poll-parse-post cost is paid between dependent steps
    /// (that software gap is why two RTTs cost more than twice one RTT —
    /// §5.2).
    pub fn get(
        &self,
        sim: &mut Simulator,
        key: u64,
        candidates: &[u64; 2],
        span: u64,
    ) -> Result<(Time, bool)> {
        let start = sim.now();
        let t_client = sim.host_config(self.ep.node).t_client_op;
        let qp = self.ep.qp;
        let read = |sim: &mut Simulator, wr: WorkRequest| -> Result<()> {
            sim.post_send(qp, wr.signaled())?;
            run_until_cqe(sim, self.ep.cq)?.ok_or(Error::InvalidWr("no completion"))?;
            Ok(())
        };
        for &cand in candidates {
            let bucket = self.table_base + (cand % self.nbuckets) * BUCKET_SIZE;
            let len = (span * BUCKET_SIZE) as u32;
            read(
                sim,
                WorkRequest::read(self.meta_buf, self.meta_lkey, len, bucket, self.table_rkey),
            )?;
            sim.run_for(t_client)?; // parse the buckets, post the next verb
            if let Some(ptr) = self.find(sim, key, span)? {
                read(
                    sim,
                    WorkRequest::read(
                        self.ep.resp_buf,
                        self.ep.resp_lkey,
                        self.value_len,
                        ptr,
                        self.value_rkey,
                    ),
                )?;
                return Ok((sim.now() - start, true));
            }
        }
        Ok((sim.now() - start, false))
    }

    /// Parse the `span` buckets just read for `key`; returns the value
    /// pointer.
    fn find(&self, sim: &Simulator, key: u64, span: u64) -> Result<Option<u64>> {
        for i in 0..span {
            let b = sim.mem_read(self.ep.node, self.meta_buf + i * BUCKET_SIZE, BUCKET_SIZE)?;
            let mut kb = [0u8; 8];
            kb[..6].copy_from_slice(&b[8..14]);
            if u64::from_le_bytes(kb) == key & 0xFFFF_FFFF_FFFF {
                return Ok(Some(u64::from_le_bytes(b[0..8].try_into().unwrap())));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Two-sided baseline
// ---------------------------------------------------------------------

/// How the two-sided server observes requests (§5.2's event-based vs
/// polling-based distinction, plus the §5.4 VMA socket stack).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwoSidedMode {
    /// Dedicated busy-polling core: low pickup latency.
    Polling,
    /// Blocking thread woken per completion: pays the interrupt path.
    Event,
    /// Kernel-bypass sockets (VMA in polling mode): fast pickup but
    /// per-packet stack cost + two payload memcpys.
    Vma,
}

/// Wire format of an RPC request.
pub(crate) const REQ_OP_GET: u64 = 0;
/// Set request opcode.
pub(crate) const REQ_OP_SET: u64 = 1;
/// Request header length (op, key, resp addr, rkey).
const REQ_HEADER: u64 = 32;

/// Encode a request whose response lands in `ep`'s response buffer.
pub(crate) fn encode_request(op: u64, key: u64, ep: &ClientEndpoint, value: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(REQ_HEADER as usize + value.len());
    b.extend_from_slice(&op.to_le_bytes());
    b.extend_from_slice(&key.to_le_bytes());
    b.extend_from_slice(&ep.resp_buf.to_le_bytes());
    b.extend_from_slice(&(ep.resp_rkey as u64).to_le_bytes());
    b.extend_from_slice(value);
    b
}

/// Per-connection receive-ring bookkeeping.
struct ConnRing {
    ring: u64,
    lkey: u32,
    nslots: u64,
}

/// The two-sided RPC server: a listener thread that services get/set
/// requests against a shared table. Each client connects through its own
/// server-side QP ([`TwoSidedServer::add_connection`]); all QPs share one
/// receive CQ and one listener thread, like a Memcached worker.
pub struct TwoSidedServer {
    /// The first connection's server-side QP (convenience for single-
    /// client experiments).
    pub qp: QpId,
    /// Server node.
    pub node: NodeId,
    /// Requests served (shared with the callback).
    pub served: Rc<RefCell<u64>>,
    recv_cq: CqId,
    conns: Rc<RefCell<HashMap<u32, ConnRing>>>,
    slot_len: u64,
    owner: ProcessId,
}

impl TwoSidedServer {
    /// Install the server with one initial connection QP. `table` is
    /// shared with the experiment harness (a `MemcachedServer`'s table,
    /// owned by its `owner`).
    pub fn install(
        sim: &mut Simulator,
        node: NodeId,
        table: Rc<RefCell<CuckooTable>>,
        mode: TwoSidedMode,
        owner: ProcessId,
    ) -> Result<TwoSidedServer> {
        let recv_cq = sim.create_cq(node, 16384)?;
        let value_len = table.borrow().heap.slot_len;
        let slot_len = REQ_HEADER + value_len as u64;
        let conns: Rc<RefCell<HashMap<u32, ConnRing>>> = Rc::default();

        let listen_mode = match mode {
            TwoSidedMode::Event => ListenMode::Event,
            _ => ListenMode::Polling,
        };
        let served = Rc::new(RefCell::new(0u64));
        let served_cb = served.clone();
        let conns_cb = conns.clone();
        let mut seq = 0u64;
        sim.set_cq_listener(
            recv_cq,
            listen_mode,
            Box::new(move |sim, cqe| {
                let qp = cqe.qp;
                let (ring, ring_lkey, nslots) = {
                    let c = conns_cb.borrow();
                    let r = c.get(&qp.0).expect("connection ring");
                    (r.ring, r.lkey, r.nslots)
                };
                let slot = ring + (cqe.wqe_index % nslots) * slot_len;
                seq += 1;
                // Parse the request.
                let hdr = sim
                    .mem_read(node, slot, REQ_HEADER)
                    .expect("request header");
                let word = |i: usize| u64::from_le_bytes(hdr[i * 8..i * 8 + 8].try_into().unwrap());
                let (op, key, resp_addr, resp_rkey) = (word(0), word(1), word(2), word(3) as u32);

                // CPU cost of servicing the request.
                let host = sim.host_config(node).clone();
                let mut cost = if op == REQ_OP_SET {
                    host.t_rpc_set
                } else {
                    host.t_rpc_lookup
                };
                if mode == TwoSidedMode::Vma {
                    // Socket stack + two memcpys of the payload (§5.4).
                    let moved = value_len as u64 * 2;
                    cost +=
                        host.t_vma_stack + Time::from_ps(host.t_memcpy_per_byte.as_ps() * moved);
                }
                let finish = sim.host_execute(node, cost, seq);

                // Table work + response, scheduled when the CPU is done.
                let table = table.clone();
                let served = served_cb.clone();
                sim.at(
                    finish,
                    Box::new(move |sim| {
                        let found_slot = {
                            let mut t = table.borrow_mut();
                            if op == REQ_OP_SET {
                                let mut value = vec![0u8; value_len as usize];
                                if let Ok(v) =
                                    sim.mem_read(node, slot + REQ_HEADER, value_len as u64)
                                {
                                    value.copy_from_slice(&v);
                                }
                                let _ = t.insert(sim, key, &value);
                                None
                            } else {
                                t.lookup(key)
                            }
                        };
                        *served.borrow_mut() += 1;
                        // Respond: value for gets, bare ack for sets/misses.
                        let (laddr, lkey, len) = match found_slot {
                            Some(s) => (s, table.borrow().heap.mr().lkey, value_len),
                            None => (0, 0, 0),
                        };
                        let wr = WorkRequest::write_imm(
                            laddr, lkey, len, resp_addr, resp_rkey, seq as u32,
                        );
                        // Repost the consumed RECV slot (the ring wraps)
                        // and send the response.
                        let _ =
                            sim.post_recv(qp, WorkRequest::recv(slot, ring_lkey, slot_len as u32));
                        let _ = sim.post_send(qp, wr);
                    }),
                );
            }),
        );
        let mut server = TwoSidedServer {
            qp: QpId(0), // replaced by the first add_connection below
            node,
            served,
            recv_cq,
            conns,
            slot_len,
            owner,
        };
        server.qp = server.add_connection(sim)?;
        Ok(server)
    }

    /// Create a server-side QP for one more client connection, with its
    /// own pre-posted receive ring.
    pub fn add_connection(&mut self, sim: &mut Simulator) -> Result<QpId> {
        let send_cq = sim.create_cq(self.node, 4096)?;
        let qp = sim.create_qp_owned(
            self.node,
            QpConfig::new(send_cq)
                .recv_cq(self.recv_cq)
                .sq_depth(2048)
                .rq_depth(2048),
            self.owner,
        )?;
        let nslots = 1024u64;
        let ring = sim.alloc(self.node, nslots * self.slot_len, 64)?;
        // The request ring is registered under the init process: the crash
        // experiment (§5.6) models the outage through the QP's death and
        // the restart+rebuild delay; re-registration after the rebuild is
        // subsumed by that delay rather than simulated verb by verb.
        let ring_mr = sim.register_mr_owned(
            self.node,
            ring,
            nslots * self.slot_len,
            Access::all(),
            ProcessId(0),
        )?;
        for i in 0..nslots {
            sim.post_recv(
                qp,
                WorkRequest::recv(ring + i * self.slot_len, ring_mr.lkey, self.slot_len as u32),
            )?;
        }
        self.conns.borrow_mut().insert(
            qp.0,
            ConnRing {
                ring,
                lkey: ring_mr.lkey,
                nslots,
            },
        );
        Ok(qp)
    }
}

/// Stage a request in `ep`'s request buffer, post the RECV its response
/// lands in, and SEND it — the request half every two-sided client shares.
pub(crate) fn post_request(
    sim: &mut Simulator,
    ep: &ClientEndpoint,
    op: u64,
    key: u64,
    value: &[u8],
) -> Result<()> {
    let req = encode_request(op, key, ep, value);
    sim.mem_write(ep.node, ep.req_buf, &req)?;
    sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0))?;
    sim.post_send(
        ep.qp,
        WorkRequest::send(ep.req_buf, ep.req_lkey, req.len() as u32),
    )?;
    Ok(())
}

/// One synchronous request: post it, wait for the response completion.
fn call(
    sim: &mut Simulator,
    ep: &ClientEndpoint,
    op: u64,
    key: u64,
    value: &[u8],
) -> Result<(Time, Cqe)> {
    let start = sim.now();
    post_request(sim, ep, op, key, value)?;
    let cqe = run_until_cqe(sim, ep.recv_cq)?.ok_or(Error::InvalidWr("no response"))?;
    Ok((sim.now() - start, cqe))
}

/// Synchronous two-sided get from `ep`: returns `(latency, found)`.
pub fn two_sided_get(sim: &mut Simulator, ep: &ClientEndpoint, key: u64) -> Result<(Time, bool)> {
    let (lat, cqe) = call(sim, ep, REQ_OP_GET, key, &[])?;
    Ok((lat, cqe.byte_len > 0))
}

/// Synchronous two-sided set.
pub fn two_sided_set(
    sim: &mut Simulator,
    ep: &ClientEndpoint,
    key: u64,
    value: &[u8],
) -> Result<Time> {
    call(sim, ep, REQ_OP_SET, key, value).map(|(lat, _)| lat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    #[test]
    fn one_sided_get_two_rtts() {
        let (mut sim, c, s) = testbed();
        let mut table = HopscotchTable::create(&mut sim, s, 256, 64, ProcessId(0)).unwrap();
        table
            .insert_at_candidate(&mut sim, 42, &[7u8; 64], 0)
            .unwrap()
            .unwrap();
        let client = OneSidedClient::create(&mut sim, c, &table).unwrap();
        let cands = table.candidates(42);
        let (lat, found) = client.get(&mut sim, 42, &cands, NEIGHBORHOOD).unwrap();
        assert!(found);
        assert_eq!(sim.mem_read(c, client.ep.resp_buf, 1).unwrap()[0], 7);
        // Two RTTs: roughly 2x a single READ (~1.8 us) plus parse time.
        let us = lat.as_us_f64();
        assert!(us > 3.0 && us < 8.0, "one-sided latency {us}");

        // Miss: probes both candidates (up to 4 READs).
        let (lat_miss, found) = client
            .get(&mut sim, 999, &table.candidates(999), NEIGHBORHOOD)
            .unwrap();
        assert!(!found);
        assert!(lat_miss > lat);
    }

    #[test]
    fn two_sided_polling_get_and_set() {
        let (mut sim, c, s) = testbed();
        let table = Rc::new(RefCell::new(
            CuckooTable::create(&mut sim, s, 256, 64, ProcessId(0)).unwrap(),
        ));
        table.borrow_mut().insert(&mut sim, 5, &[9u8; 64]).unwrap();
        let server = TwoSidedServer::install(
            &mut sim,
            s,
            table.clone(),
            TwoSidedMode::Polling,
            ProcessId(0),
        )
        .unwrap();
        let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
        sim.connect_qps(ep.qp, server.qp).unwrap();
        sim.set_runnable_threads(s, 1);

        let (lat, found) = two_sided_get(&mut sim, &ep, 5).unwrap();
        assert!(found);
        assert_eq!(sim.mem_read(c, ep.resp_buf, 1).unwrap()[0], 9);
        let us = lat.as_us_f64();
        // One RTT + pickup + CPU lookup: a handful of microseconds.
        assert!(us > 2.0 && us < 12.0, "two-sided latency {us}");

        // Set then read back.
        two_sided_set(&mut sim, &ep, 123, &[0xCD; 64]).unwrap();
        let (_, found) = two_sided_get(&mut sim, &ep, 123).unwrap();
        assert!(found);
        assert_eq!(sim.mem_read(c, ep.resp_buf, 1).unwrap()[0], 0xCD);
        assert_eq!(*server.served.borrow(), 3);

        // Miss returns an empty response.
        let (_, found) = two_sided_get(&mut sim, &ep, 777).unwrap();
        assert!(!found);
    }

    #[test]
    fn event_mode_is_slower_than_polling() {
        let run = |mode: TwoSidedMode| -> f64 {
            let (mut sim, c, s) = testbed();
            let table = Rc::new(RefCell::new(
                CuckooTable::create(&mut sim, s, 256, 64, ProcessId(0)).unwrap(),
            ));
            table.borrow_mut().insert(&mut sim, 5, &[9u8; 64]).unwrap();
            let server = TwoSidedServer::install(&mut sim, s, table, mode, ProcessId(0)).unwrap();
            let ep = ClientEndpoint::create(&mut sim, c, 64).unwrap();
            sim.connect_qps(ep.qp, server.qp).unwrap();
            sim.set_runnable_threads(s, 1);
            let (lat, _) = two_sided_get(&mut sim, &ep, 5).unwrap();
            lat.as_us_f64()
        };
        let polling = run(TwoSidedMode::Polling);
        let event = run(TwoSidedMode::Event);
        let vma = run(TwoSidedMode::Vma);
        assert!(
            event > polling + 3.0,
            "event {event} should pay the wake cost over polling {polling}"
        );
        assert!(
            vma > polling,
            "VMA {vma} adds stack+memcpy over raw RDMA {polling}"
        );
    }
}
