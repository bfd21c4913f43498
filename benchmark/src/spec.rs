//! Names and units of every workload and metric, in output order.
//! `BENCHMARK.json` lists the same sets (a unit test compares them).

pub const WORKLOADS: [&str; 6] = [
    "publish_paper",
    "range_narrow",
    "range_wide",
    "knn",
    "tcp_query",
    "churn_mix",
];

/// `(name, unit)` of the end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("recall", "ratio"),
    ("hops_per_op", "count"),
    ("messages_per_op", "count"),
    ("bytes_per_op", "count"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, printed by every traced run.
/// A layer the workload's replay never enters reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("wavelet.decompose_us_per_item", "us"),
    ("cluster.kmeans_ms_per_peer", "ms"),
    ("cluster.kmeans_iters_per_call", "count"),
    ("cluster.spheres_us_per_peer", "us"),
    ("cluster.kdtree_build_ms_per_peer", "ms"),
    ("geometry.intersection_fraction_ns_per_call", "ns"),
    ("geometry.solve_epsilon_us_per_call", "us"),
    ("geometry.sq_dist_ns_per_call_512d", "ns"),
    ("can.bootstrap_ms_per_level", "ms"),
    ("can.insert_sphere_us_per_call", "us"),
    ("can.replicas_per_sphere", "count"),
    ("can.insert_hops_per_sphere", "count"),
    ("can.range_query_us_per_call", "us"),
    ("can.range_messages_per_call", "count"),
    ("can.range_matches_per_call", "count"),
    ("can.codec_encode_ns_per_query", "ns"),
    ("can.codec_decode_ns_per_query", "ns"),
    ("can.codec_encode_ns_per_queryack", "ns"),
    ("can.codec_decode_ns_per_queryack", "ns"),
    ("baton.insert_sphere_us_per_call", "us"),
    ("baton.range_query_us_per_call", "us"),
    ("vbi.insert_sphere_us_per_call", "us"),
    ("vbi.range_query_us_per_call", "us"),
    ("core.summarize_ms_per_peer", "ms"),
    ("core.build_ms", "ms"),
    ("core.build_unattributed_ms", "ms"),
    ("sim.makespan_rounds", "count"),
    ("core.query_decompose_us", "us"),
    ("core.radius_translate_us", "us"),
    ("core.score_us_per_query", "us"),
    ("core.phase1_ms_per_query", "ms"),
    ("core.phase2_ms_per_query", "ms"),
    ("core.local_range_us_per_peer", "us"),
    ("core.peers_contacted_per_query", "count"),
    ("core.useful_peer_ratio", "ratio"),
    ("core.query_unattributed_ms", "ms"),
    ("core.point_query_ms", "ms"),
    ("core.insert_republish_us_per_item", "us"),
    ("core.refresh_ms_per_peer", "ms"),
    ("core.join_peer_ms", "ms"),
    ("core.depart_ms", "ms"),
    ("core.crash_repair_ms", "ms"),
    ("transport.frame_write_ns_per_query", "ns"),
    ("transport.frame_read_ns_per_query", "ns"),
    ("transport.wire_bytes_per_query", "count"),
    ("transport.mem_rtt_us_small", "us"),
    ("transport.mem_query_ms", "ms"),
    ("transport.tcp_rtt_us_small", "us"),
    ("transport.tcp_query_overhead_ms", "ms"),
    ("transport.member_forward_extra_ms", "ms"),
    ("transport.tcp_2clients_qps_ratio", "ratio"),
    ("datagen.markov_items_per_s", "1/s"),
    ("datagen.distribute_s", "s"),
    ("baseline.flat_range_ms_per_query", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use hyperm_telemetry::json::JsonValue;
    use std::collections::BTreeSet;

    fn legal(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &all {
            assert!(legal(n), "illegal name {n}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
    }

    #[test]
    fn names_and_units_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = JsonValue::parse(&text).expect("parse BENCHMARK.json");
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }
}
