//! Linked-list traversal offload (Fig 12/13): the NIC walks a remote
//! list, with and without the self-modifying `break`.
//!
//! ```text
//! cargo run --example list_traversal
//! ```

use redn::core::ctx::OffloadCtx;
use redn::core::offloads::rpc;
use redn::kv::endpoint::ClientEndpoint;
use redn::kv::liststore::ListStore;
use redn::kv::session::{Session, SessionOpts};
use redn::prelude::*;
use redn_bench::run_until_cqe;
use rnic_sim::config::{LinkConfig, SimConfig};
use rnic_sim::ids::ProcessId;
use rnic_sim::wqe::WorkRequest;

const VALUE_LEN: u32 = 64;
const LIST_LEN: usize = 8;

fn main() {
    for with_break in [false, true] {
        let mut sim = Simulator::new(SimConfig::default());
        let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(client, server, LinkConfig::back_to_back());

        // One 8-node list; node i's value is filled with its key's low
        // byte, i + 1.
        let store =
            ListStore::create(&mut sim, server, 1, LIST_LEN, VALUE_LEN, ProcessId(0)).unwrap();
        let (head, key) = (store.head(0), store.key_of(0, 2));
        let mut ctx = OffloadCtx::builder(server)
            .pool_capacity(1 << 20)
            .build(&mut sim)
            .unwrap();

        // Walk for the third node's key.
        let before = sim.verbs_executed(server);
        let (latency, value) = if with_break {
            // A break walk is single-shot and suppresses completions, so
            // it is a builder deployment, not a session.
            let ep = ClientEndpoint::create(&mut sim, client, VALUE_LEN).unwrap();
            let mut off = store
                .walk_builder(&ctx)
                .unwrap()
                .respond_to(ep.dest())
                .max_nodes(LIST_LEN)
                .break_on_match()
                .build(&mut sim)
                .unwrap();
            sim.connect_qps(ep.qp, off.tp.qp).unwrap();
            off.arm(&mut sim, ctx.pool_mut()).unwrap();
            sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0)).unwrap();
            let payload = off.client_payload(head, key);
            sim.mem_write(client, ep.req_buf, &payload).unwrap();
            let start = sim.now();
            sim.post_send(
                ep.qp,
                rpc::trigger_send(ep.req_buf, ep.req_lkey, payload.len() as u32),
            )
            .unwrap();
            let cqe = run_until_cqe(&mut sim, ep.recv_cq)
                .unwrap()
                .expect("response");
            let value = sim.mem_read(client, ep.resp_buf, 1).unwrap()[0];
            (cqe.time - start, value)
        } else {
            let opts = SessionOpts::blocking();
            let mut walks =
                Session::connect_walk(&mut sim, &mut ctx, &store, client, LIST_LEN, opts).unwrap();
            let (latency, found) = walks
                .walk_blocking(&mut sim, ctx.pool_mut(), head, key)
                .unwrap();
            assert!(found);
            let resp = walks.endpoint().resp_buf;
            (latency, sim.mem_read(client, resp, 1).unwrap()[0])
        };
        sim.run().unwrap(); // drain the abandoned tail, if any
        let executed = sim.verbs_executed(server) - before;
        println!(
            "{}: key {key:#x} -> node #{value} in {:.2} us, {executed} verbs executed",
            if with_break {
                "RedN +break "
            } else {
                "RedN        "
            },
            latency.as_us_f64(),
        );
        assert_eq!(value, 3);
    }
    println!(
        "\nbreak abandons the remaining iterations — fewer verbs, slightly more latency (Fig 13)."
    );
}
