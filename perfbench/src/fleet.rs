//! `http-fleet`: a least-loaded router in front of two in-process replicas,
//! driven over two keep-alive connections by the benchmark's own client.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdc::CompressionPlan;
use tdc_nn::models::ModelDescriptor;
use tdc_router::{Router, RouterOptions, RoutingPolicy};
use tdc_serve::http::{InferBody, InferReply};
use tdc_serve::{HttpHandler, HttpServer, ModelConfig, ModelRegistry, PoolStats};

use crate::common::{derive_seed, Ctx, InputPool, Outcome};
use crate::host::{cpu_seconds, nproc};
use crate::httpc::{encode_request, Client};
use crate::serving::{
    engine_layers, reference, svc_mini, window_utilization, POOL_INPUTS, WARMUP_S,
};
use crate::spans::{SpanId, SpanLog};

const MODEL: &str = "svc-mini";
const PATH: &str = "/v1/models/svc-mini/infer";
const REPLICAS: usize = 2;
/// `slo_met_share` limit of `http-fleet`, ms.
const FLEET_SLO_MS: f64 = 250.0;
/// Wall time of the stage probe in the traced run, s (at least
/// [`PROBE_MIN_ROUNDS`] rounds).
const PROBE_S: f64 = 4.0;
const PROBE_MIN_ROUNDS: usize = 20;

/// The running fleet.
pub struct HttpFleet {
    replicas: Vec<HttpServer>,
    started: Instant,
    router: Arc<Router>,
    front: HttpServer,
    descriptor: ModelDescriptor,
}

impl HttpFleet {
    /// Build both replicas (plan, materialize, warm up, bind) and the router.
    pub fn setup() -> Result<HttpFleet, String> {
        let descriptor = svc_mini();
        let started = Instant::now();
        let replicas = (0..REPLICAS)
            .map(|_| {
                let registry = ModelRegistry::new(2);
                registry
                    .register(MODEL, &descriptor, ModelConfig::default())
                    .map_err(|e| format!("register failed: {e}"))?;
                HttpServer::bind("127.0.0.1:0", Arc::new(registry))
                    .map_err(|e| format!("replica bind failed: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let addrs: Vec<SocketAddr> = replicas.iter().map(HttpServer::local_addr).collect();
        let router = Arc::new(Router::new(
            &addrs,
            RouterOptions {
                policy: RoutingPolicy::LeastLoaded,
                ..RouterOptions::default()
            },
        ));
        let front = HttpServer::bind_with_handler(
            "127.0.0.1:0",
            Arc::clone(&router) as Arc<dyn HttpHandler>,
        )
        .map_err(|e| format!("router bind failed: {e}"))?;
        Ok(HttpFleet {
            replicas,
            started,
            router,
            front,
            descriptor,
        })
    }

    /// The served plan (every replica serves the same one).
    pub fn plans(&self) -> Result<Vec<CompressionPlan>, String> {
        let engine = self.replicas[0]
            .registry()
            .engine(MODEL)
            .map_err(|e| e.to_string())?;
        Ok(vec![engine.plan().clone()])
    }

    /// Tear down front end, router, then each replica's server and engines.
    pub fn teardown(self) {
        self.front.stop();
        self.router.stop();
        for server in self.replicas {
            let registry = server.shutdown();
            if let Ok(registry) = Arc::try_unwrap(registry) {
                registry.shutdown();
            }
        }
    }

    /// Run the whole workload: warm-up, the measured window(s), probes.
    pub fn run(self, ctx: &Ctx, log: &mut SpanLog) -> Result<(Outcome, Option<Outcome>), String> {
        let engine = self.replicas[0]
            .registry()
            .engine(MODEL)
            .map_err(|e| e.to_string())?;
        let plan = Arc::new(engine.plan().clone());
        drop(engine);
        let model = Arc::new(reference(&self.descriptor, &plan)?);
        let pool = InputPool::new(&model, POOL_INPUTS, derive_seed(ctx.seed, 2))?;
        let front = self.front.local_addr();
        let requests: Vec<Vec<u8>> = pool
            .inputs
            .iter()
            .map(|x| {
                let body = serde_json::to_string(&InferBody {
                    input: x.data().to_vec(),
                    dims: None,
                    deadline_ms: None,
                })
                .map_err(|e| e.to_string())?;
                Ok(encode_request("POST", PATH, &front, body.as_bytes()))
            })
            .collect::<Result<_, String>>()?;
        closed_loop(&front, &requests, &pool, WARMUP_S, &mut ctx.log(false))?;
        let untraced = self.window(ctx, &requests, &pool, &mut ctx.log(false))?;
        let traced = if ctx.trace {
            let mut out = self.window(ctx, &requests, &pool, log)?;
            self.stage_probe(&mut out, log, &pool)?;
            let seed = tdc_serve::RuntimeOptions::default().seed;
            crate::probes::kernels(
                &mut out,
                log,
                &self.descriptor,
                &plan,
                &model,
                seed,
                &pool.inputs[0],
            )?;
            crate::probes::forward(
                &mut out,
                log,
                &self.descriptor,
                &plan,
                &model,
                seed,
                &pool.inputs,
            )?;
            let child = crate::common::run_child(ctx, "compress")?;
            crate::serving::setup_stages(&mut out, &child, &self.descriptor)?;
            Some(out)
        } else {
            None
        };
        self.teardown();
        Ok((untraced, traced))
    }

    fn registries(&self) -> impl Iterator<Item = &Arc<ModelRegistry>> {
        self.replicas.iter().map(HttpServer::registry)
    }

    fn window(
        &self,
        ctx: &Ctx,
        requests: &[Vec<u8>],
        pool: &InputPool,
        log: &mut SpanLog,
    ) -> Result<Outcome, String> {
        for registry in self.registries() {
            registry
                .engine(MODEL)
                .map_err(|e| e.to_string())?
                .reset_metrics();
        }
        let pools_before: Vec<PoolStats> = self.pool_stats()?;
        let t0 = self.started.elapsed().as_secs_f64();
        let execs0: Vec<_> = self.registries().map(|r| r.metrics().executor).collect();
        let failovers0 = self.router.metrics().failovers_total;
        let cpu0 = cpu_seconds();
        let mut out = closed_loop(&self.front.local_addr(), requests, pool, ctx.seconds, log)?;
        let cpu1 = cpu_seconds();
        let t1 = self.started.elapsed().as_secs_f64();
        let execs1: Vec<_> = self.registries().map(|r| r.metrics().executor).collect();
        let pools_after = self.pool_stats()?;
        let windows = self
            .registries()
            .zip(pools_before.iter().zip(&pools_after))
            .map(|(registry, (before, after))| {
                let metrics = registry.engine(MODEL).map_err(|e| e.to_string())?.metrics();
                Ok((metrics, *before, *after))
            })
            .collect::<Result<Vec<_>, String>>()?;
        engine_layers(&mut out, &windows);
        let utilization: f64 = execs0
            .iter()
            .zip(&execs1)
            .map(|(a, b)| window_utilization(a.utilization, t0, b.utilization, t1))
            .sum::<f64>()
            / REPLICAS as f64;
        out.layer("exec.utilization", utilization);
        out.layer(
            "exec.steals",
            execs0
                .iter()
                .zip(&execs1)
                .map(|(a, b)| (b.steals_total - a.steals_total) as f64)
                .sum(),
        );
        out.layer("process.cpu_cores", (cpu1 - cpu0) / out.window_s);
        out.layer(
            "router.failovers",
            (self.router.metrics().failovers_total - failovers0) as f64,
        );
        Ok(out)
    }

    fn pool_stats(&self) -> Result<Vec<PoolStats>, String> {
        self.registries()
            .map(|r| {
                r.engine(MODEL)
                    .map(|e| e.pool_stats())
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Split one request's round trip into stages by timing the same request
    /// through successively fewer layers, interleaved round by round:
    /// through the router, direct to a replica, through the in-process route
    /// table, and straight into the registry.
    fn stage_probe(
        &self,
        out: &mut Outcome,
        log: &mut SpanLog,
        pool: &InputPool,
    ) -> Result<(), String> {
        let registry = self.replicas[0].registry();
        let front = self.front.local_addr();
        let direct = self.replicas[0].local_addr();
        let body = serde_json::to_string(&InferBody {
            input: pool.inputs[0].data().to_vec(),
            dims: None,
            deadline_ms: None,
        })
        .map_err(|e| e.to_string())?;
        let via_router = encode_request("POST", PATH, &front, body.as_bytes());
        let via_replica = encode_request("POST", PATH, &direct, body.as_bytes());
        let mut router_client = Client::connect(&front).map_err(|e| e.to_string())?;
        let mut replica_client = Client::connect(&direct).map_err(|e| e.to_string())?;
        let check = |status: u16, body: &[u8]| -> Result<(), String> {
            if status == 200 && reply_matches(body, pool, 0) {
                Ok(())
            } else {
                Err(format!("stage probe answer wrong (status {status})"))
            }
        };
        let (mut hop, mut io, mut codec, mut infer) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        let mut round = 0u64;
        while hop.len() < PROBE_MIN_ROUNDS || start.elapsed().as_secs_f64() < PROBE_S {
            let t = Instant::now();
            let r = log
                .time("router.round_trip", SpanId::root(), round, || {
                    router_client.round_trip(&via_router)
                })
                .map_err(|e| e.to_string())?;
            hop.push(t.elapsed().as_secs_f64() * 1e3);
            check(r.status, &r.body)?;
            let t = Instant::now();
            let r = log
                .time("serve.http.round_trip", SpanId::root(), round, || {
                    replica_client.round_trip(&via_replica)
                })
                .map_err(|e| e.to_string())?;
            io.push(t.elapsed().as_secs_f64() * 1e3);
            check(r.status, &r.body)?;
            let t = Instant::now();
            let (status, reply) = log.time("serve.http.route", SpanId::root(), round, || {
                tdc_serve::http::route(registry, "POST", PATH, &body)
            });
            codec.push(t.elapsed().as_secs_f64() * 1e3);
            check(status, reply.as_bytes())?;
            let t = Instant::now();
            let r = log
                .time("serve.registry.infer", SpanId::root(), round, || {
                    registry.infer(MODEL, pool.inputs[0].clone())
                })
                .map_err(|e| e.to_string())?;
            infer.push(t.elapsed().as_secs_f64() * 1e3);
            if !pool.matches(0, r.output.data()) {
                return Err("stage probe registry answer wrong".into());
            }
            round += 1;
        }
        let mean = crate::stats::mean;
        let (m_router, m_direct, m_route, m_infer) =
            (mean(&hop), mean(&io), mean(&codec), mean(&infer));
        out.layer("router.hop_ms", m_router - m_direct);
        out.layer("serve.http.io_ms", m_direct - m_route);
        out.layer("serve.http.codec_ms", m_route - m_infer);
        out.layer("serve.registry.infer_ms", m_infer);
        let window_mean = mean(&out.latencies_ms);
        out.notes.push(format!(
            "stage probe: {round} rounds; stage means sum to {m_router:.3} ms against a traced window mean of {window_mean:.3} ms ({:+.1}%)",
            (m_router / window_mean - 1.0) * 100.0
        ));
        Ok(())
    }
}

/// Whether an infer reply body carries input `i`'s reference logits.
fn reply_matches(body: &[u8], pool: &InputPool, i: usize) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| serde_json::from_str::<InferReply>(text).ok())
        .is_some_and(|reply| pool.matches(i, &reply.output))
}

/// One closed loop per connection (two, or one on a one-core host, so the
/// load generator never has more threads than cores), each with one request
/// in flight, for `seconds`.
fn closed_loop(
    addr: &SocketAddr,
    requests: &[Vec<u8>],
    pool: &InputPool,
    seconds: f64,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let connections = nproc().clamp(1, 2);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mut conn_log = log.fork();
                scope.spawn(move || -> Result<(Outcome, SpanLog, f64), String> {
                    let mut out = Outcome {
                        slo_limit_ms: FLEET_SLO_MS,
                        ..Outcome::default()
                    };
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
                    let mut busy_s = 0.0;
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let i = (c + connections * k as usize) % requests.len();
                        let request = k * connections as u64 + c as u64;
                        let root = conn_log.begin("request", SpanId::root(), request);
                        let sent = Instant::now();
                        out.attempted += 1;
                        let answer = conn_log.time("http.round_trip", root, request, || {
                            client.round_trip(&requests[i])
                        });
                        let received = Instant::now();
                        match answer {
                            Ok(r) if r.status == 200 => {
                                let ok =
                                    conn_log.time("bench.decode_verify", root, request, || {
                                        reply_matches(&r.body, pool, i)
                                    });
                                if ok {
                                    out.record_ok(
                                        sent.elapsed().as_secs_f64() * 1e3,
                                        start.elapsed().as_secs_f64(),
                                    );
                                } else {
                                    out.wrong += 1;
                                }
                            }
                            Ok(r) if r.status == 429 || r.status == 503 => out.rejected += 1,
                            Ok(r) if r.status == 504 => out.expired += 1,
                            Ok(_) => out.errors += 1,
                            Err(e) => return Err(format!("connection {c} failed: {e}")),
                        }
                        conn_log.end(root);
                        busy_s += received.elapsed().as_secs_f64();
                        k += 1;
                    }
                    Ok((out, conn_log, busy_s))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let window_s = start.elapsed().as_secs_f64();
    let mut out = Outcome {
        slo_limit_ms: FLEET_SLO_MS,
        window_s,
        ..Outcome::default()
    };
    let mut busy = 0.0;
    for (part, conn_log, busy_s) in results {
        out.attempted += part.attempted;
        out.completed += part.completed;
        out.rejected += part.rejected;
        out.expired += part.expired;
        out.errors += part.errors;
        out.wrong += part.wrong;
        out.slo_met += part.slo_met;
        out.latencies_ms.extend(part.latencies_ms);
        out.done_s.extend(part.done_s);
        log.absorb(conn_log);
        busy += busy_s;
    }
    // Time a connection spent on its own work between answer and next send
    // is time its request slot stood empty.
    let empty_share = busy / (window_s * connections as f64);
    out.notes.push(format!(
        "{connections} connections; request slots empty {:.3}% of the window (client-side work)",
        empty_share * 100.0
    ));
    if empty_share > 0.05 {
        out.invalid = Some(format!(
            "client kept its request slots empty {:.1}% of the window",
            empty_share * 100.0
        ));
    }
    Ok(out)
}
