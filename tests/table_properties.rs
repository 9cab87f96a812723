//! Property tests: the cuckoo and hopscotch tables against a HashMap
//! model, including the invariant the offload depends on — every resident
//! key is findable by probing only its two candidate buckets.

use proptest::prelude::*;
use redn::kv::cuckoo::CuckooTable;
use redn::prelude::*;
use redn_bench::hopscotch::HopscotchTable;
use rnic_sim::config::SimConfig;
use rnic_sim::ids::ProcessId;
use std::collections::HashMap;

fn sim_node() -> (Simulator, rnic_sim::ids::NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let n = sim.add_node("s", HostConfig::default(), NicConfig::connectx5());
    (sim, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cuckoo_agrees_with_hashmap_model(
        ops in prop::collection::vec((1u64..500, 0u8..255), 1..120),
    ) {
        let (mut sim, n) = sim_node();
        let mut table = CuckooTable::create(&mut sim, n, 1024, 16, ProcessId(0)).unwrap();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (key, tag) in ops {
            if table.insert(&mut sim, key, &[tag; 16]).unwrap() {
                model.insert(key, tag);
            }
        }
        prop_assert_eq!(table.is_empty(), model.is_empty());
        for (key, tag) in &model {
            let slot = table.lookup(*key);
            prop_assert!(slot.is_some(), "key {key} lost");
            let v = table.heap.read_value(&sim, slot.unwrap(), 1).unwrap();
            prop_assert_eq!(v[0], *tag, "key {} value", key);
            // The 2-probe invariant the RedN offload relies on.
            prop_assert!(table.holding_candidate(*key).is_some());
        }
        // Absent keys stay absent.
        for key in 600u64..620 {
            prop_assert!(table.lookup(key).is_none());
        }
    }

    #[test]
    fn hopscotch_bucket_bytes_always_decode(
        keys in prop::collection::btree_set(1u64..300, 1..40),
    ) {
        let (mut sim, n) = sim_node();
        let mut table = HopscotchTable::create(&mut sim, n, 512, 16, ProcessId(0)).unwrap();
        let mut stored = Vec::new();
        for key in keys {
            if let Some(idx) = table.insert(&mut sim, key, &[1; 16]).unwrap() {
                stored.push((key, idx));
            }
        }
        // Every stored bucket decodes to (ptr into the heap, the key).
        for (key, idx) in stored {
            let b = sim
                .mem_read(n, table.bucket_addr(idx), 16)
                .unwrap();
            let ptr = u64::from_le_bytes(b[0..8].try_into().unwrap());
            let mut kb = [0u8; 8];
            kb[..6].copy_from_slice(&b[8..14]);
            prop_assert_eq!(u64::from_le_bytes(kb), key);
            prop_assert!(ptr >= table.heap.base);
        }
    }
}

#[test]
fn cuckoo_update_in_place_does_not_grow() {
    let (mut sim, n) = sim_node();
    let mut table = CuckooTable::create(&mut sim, n, 256, 16, ProcessId(0)).unwrap();
    for _ in 0..10 {
        assert!(table.insert(&mut sim, 42, &[7; 16]).unwrap());
    }
    assert_eq!(table.len(), 1);
}
