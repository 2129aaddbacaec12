//! Serving-layer accounting.
//!
//! Every admission, shed, degradation, deadline expiry, fault, cache
//! and batch decision increments exactly one counter here. The counters
//! are plain atomics, readable in-process via [`ServeMetrics::snapshot`]
//! and the `/v1/stats` endpoint. The block is also a scrape-time
//! collector ([`LiveSource`]): [`crate::Server::start`] registers it with
//! the process-wide live registry ([`fbmpk_obs::live`]), so the
//! exposition endpoint and `repro top` read the serving families, labeled
//! `server="<id>"`, next to the kernel families — an increment is one
//! relaxed `fetch_add` and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};

use fbmpk_obs::live::{FamilySnapshot, LiveSample, LiveSource, MetricKind, SampleValue};

use crate::admission::ShedReason;

macro_rules! serve_metrics {
    ($( $field:ident => ($name:literal, $help:literal) ),+ $(,)?) => {
        /// Counter block for one server instance.
        #[derive(Debug)]
        pub struct ServeMetrics {
            /// Process-unique instance id: the `server` label of the live
            /// families.
            pub(crate) id: u64,
            $(
                #[doc = $help]
                pub $field: AtomicU64,
            )+
        }

        impl Default for ServeMetrics {
            fn default() -> Self {
                static NEXT_ID: AtomicU64 = AtomicU64::new(0);
                ServeMetrics {
                    id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                    $( $field: AtomicU64::new(0), )+
                }
            }
        }

        /// A point-in-time copy of every counter.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(
                #[doc = $help]
                pub $field: u64,
            )+
        }

        impl ServeMetrics {
            /// Copies every counter.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                }
            }

            /// Renders `name value` lines (the `/v1/stats` body; also the
            /// load generator's scrape format).
            pub fn render(&self) -> String {
                let mut out = String::new();
                $(
                    out.push_str(concat!($name, " "));
                    out.push_str(&self.$field.load(Ordering::Relaxed).to_string());
                    out.push('\n');
                )+
                out
            }
        }

        impl LiveSource for ServeMetrics {
            fn collect(&self) -> Vec<FamilySnapshot> {
                let labels = vec![("server".to_string(), self.id.to_string())];
                vec![
                    $(
                        FamilySnapshot {
                            name: $name.to_string(),
                            help: $help.to_string(),
                            kind: MetricKind::Counter,
                            samples: vec![LiveSample {
                                labels: labels.clone(),
                                value: SampleValue::Counter(self.$field.load(Ordering::Relaxed)),
                            }],
                        },
                    )+
                ]
            }
        }

        impl StatsSnapshot {
            /// Parses the `/v1/stats` body back into a snapshot (missing
            /// lines stay zero; unknown lines are ignored).
            pub fn parse(body: &str) -> StatsSnapshot {
                let mut s = StatsSnapshot::default();
                for line in body.lines() {
                    let Some((name, value)) = line.rsplit_once(' ') else { continue };
                    let Ok(value) = value.parse::<u64>() else { continue };
                    match name {
                        $( $name => s.$field = value, )+
                        _ => {}
                    }
                }
                s
            }
        }
    };
}

serve_metrics! {
    requests => ("fbmpk_serve_requests_total", "Requests received (any route)"),
    ok => ("fbmpk_serve_ok_total", "Requests answered 200"),
    bad_request => ("fbmpk_serve_bad_request_total", "Malformed requests answered 400"),
    not_found => ("fbmpk_serve_not_found_total", "Unknown routes answered 404"),
    shed_queue_full => ("fbmpk_serve_shed_queue_full_total", "429s from the bounded queue refusing a request"),
    shed_tenant_quota => ("fbmpk_serve_shed_tenant_quota_total", "429s from the per-tenant concurrency quota"),
    shed_new_tenant => ("fbmpk_serve_shed_new_tenant_total", "429s from ladder rung 2 (new tenants rejected)"),
    shed_uncached => ("fbmpk_serve_shed_uncached_total", "429s from ladder rung 3 (only cached work admitted)"),
    degraded => ("fbmpk_serve_degraded_total", "Requests served off a probe-free scalar plan (ladder rung 1)"),
    deadline_expired => ("fbmpk_serve_deadline_expired_total", "503s from per-request deadline expiry (queue or watchdog)"),
    worker_fault => ("fbmpk_serve_worker_fault_total", "500s from a worker fault isolated to one request"),
    plan_unavailable => ("fbmpk_serve_plan_unavailable_total", "503s from failed or negatively-cached plan builds"),
    cache_hits => ("fbmpk_serve_cache_hits_total", "Plan-cache lookups served from a resident plan"),
    cache_misses => ("fbmpk_serve_cache_misses_total", "Plan-cache lookups that ran an inspection"),
    cache_singleflight_waits => ("fbmpk_serve_cache_singleflight_waits_total", "Lookups that waited on another caller's in-flight build"),
    cache_negative_hits => ("fbmpk_serve_cache_negative_hits_total", "Lookups refused by a live negative-cache entry"),
    cache_build_failures => ("fbmpk_serve_cache_build_failures_total", "Plan builds that failed or panicked (and were negatively cached)"),
    batched => ("fbmpk_serve_batched_total", "Power requests that shared an SpMM batch of width > 1"),
    batch_executions => ("fbmpk_serve_batch_executions_total", "Coalesced SpMM executions run on behalf of >= 1 request"),
}

impl ServeMetrics {
    /// Increments one of this block's counters.
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The shed counter for `reason`.
    pub fn count_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.inc(&self.shed_queue_full),
            ShedReason::TenantQuota => self.inc(&self.shed_tenant_quota),
            ShedReason::NewTenant => self.inc(&self.shed_new_tenant),
            ShedReason::Uncached => self.inc(&self.shed_uncached),
        }
    }
}

impl StatsSnapshot {
    /// Total typed rejections (every 429).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_tenant_quota + self.shed_new_tenant + self.shed_uncached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips() {
        let m = ServeMetrics::default();
        m.inc(&m.requests);
        m.inc(&m.requests);
        m.inc(&m.ok);
        m.count_shed(ShedReason::QueueFull);
        m.count_shed(ShedReason::Uncached);
        let snap = StatsSnapshot::parse(&m.render());
        assert_eq!(snap, m.snapshot());
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.shed_total(), 2);
    }

    #[test]
    fn shed_reasons_hit_distinct_counters() {
        let m = ServeMetrics::default();
        for r in [
            ShedReason::QueueFull,
            ShedReason::TenantQuota,
            ShedReason::NewTenant,
            ShedReason::Uncached,
        ] {
            m.count_shed(r);
        }
        let s = m.snapshot();
        assert_eq!(
            (s.shed_queue_full, s.shed_tenant_quota, s.shed_new_tenant, s.shed_uncached),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn collector_reports_every_counter_under_the_server_label() {
        let m = ServeMetrics::default();
        m.inc(&m.worker_fault);
        m.count_shed(ShedReason::TenantQuota);
        let fams = m.collect();
        assert_eq!(fams.len(), m.render().lines().count(), "one family per counter");
        let server = m.id.to_string();
        for f in &fams {
            assert_eq!(f.kind, MetricKind::Counter);
            assert_eq!(f.samples.len(), 1);
            assert_eq!(f.samples[0].labels, vec![("server".to_string(), server.clone())]);
        }
        let value =
            |name: &str| fams.iter().find(|f| f.name == name).map(|f| f.samples[0].value.clone());
        assert_eq!(value("fbmpk_serve_worker_fault_total"), Some(SampleValue::Counter(1)));
        assert_eq!(value("fbmpk_serve_shed_tenant_quota_total"), Some(SampleValue::Counter(1)));
        assert_eq!(value("fbmpk_serve_ok_total"), Some(SampleValue::Counter(0)));
        assert_ne!(ServeMetrics::default().id, m.id, "instances get distinct labels");
    }
}
