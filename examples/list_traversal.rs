//! Linked-list traversal offload (Fig 12/13): the NIC walks a remote
//! list, with and without the self-modifying `break`.
//!
//! ```text
//! cargo run --example list_traversal
//! ```

use redn::core::ctx::{OffloadCtx, TableRegion};
use redn::core::offloads::list::{encode_node, NODE_HEADER};
use redn::core::offloads::rpc;
use redn::kv::endpoint::{run_until_cqe, ClientEndpoint};
use redn::prelude::*;
use rnic_sim::config::{LinkConfig, SimConfig};
use rnic_sim::wqe::WorkRequest;

const VALUE_LEN: u32 = 64;
const LIST_LEN: u64 = 8;

fn main() {
    for with_break in [false, true] {
        let mut sim = Simulator::new(SimConfig::default());
        let client = sim.add_node("client", HostConfig::default(), NicConfig::connectx5());
        let server = sim.add_node("server", HostConfig::default(), NicConfig::connectx5());
        sim.connect_nodes(client, server, LinkConfig::back_to_back());

        // Build an 8-node list; node i has key 100+i, value byte i+1.
        let node_size = NODE_HEADER + VALUE_LEN as u64;
        let base = sim.alloc(server, LIST_LEN * node_size, 64).unwrap();
        let mr = sim
            .register_mr(server, base, LIST_LEN * node_size, Access::all())
            .unwrap();
        for i in 0..LIST_LEN {
            let addr = base + i * node_size;
            let next = if i + 1 < LIST_LEN {
                addr + node_size
            } else {
                0
            };
            let bytes = encode_node(next, 100 + i, &vec![(i + 1) as u8; VALUE_LEN as usize]);
            sim.mem_write(server, addr, &bytes).unwrap();
        }

        let ep = ClientEndpoint::create(&mut sim, client, VALUE_LEN).unwrap();
        let mut ctx = OffloadCtx::builder(server)
            .pool_capacity(1 << 20)
            .build(&mut sim)
            .unwrap();
        let mut builder = ctx
            .list_walk()
            .list(TableRegion::of(&mr))
            .value_len(VALUE_LEN)
            .respond_to(ep.dest())
            .max_nodes(LIST_LEN as usize);
        if with_break {
            builder = builder.break_on_match();
        }
        let mut off = builder.build(&mut sim).unwrap();
        sim.connect_qps(ep.qp, off.tp.qp).unwrap();
        off.arm(&mut sim, ctx.pool_mut()).unwrap();

        // Walk for key 102 (third node).
        let before = sim.verbs_executed(server);
        sim.post_recv(ep.qp, WorkRequest::recv(0, 0, 0)).unwrap();
        let payload = off.client_payload(base, 102);
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
        let latency = cqe.time - start;
        let value = sim.mem_read(client, ep.resp_buf, 1).unwrap()[0];
        sim.run().unwrap(); // drain the abandoned tail, if any
        let executed = sim.verbs_executed(server) - before;
        println!(
            "{}: key 102 -> node #{value} in {:.2} us, {executed} verbs executed",
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
