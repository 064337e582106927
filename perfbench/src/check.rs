//! Correctness checks: response shapes, and direct `ExplainApp` calls
//! that socket responses must match byte for byte.

use exrec_serve::proto::{
    ExplainRequest, ExplainResponse, RateBatchRequest, RateRequest, RateResponse, RecommendRequest,
    RecommendResponse,
};
use exrec_serve::{Deadline, ExplainApp};

use crate::workload::Req;

/// Checks one 2xx body against the request that produced it.
pub fn shape(req: &Req, body: &[u8], n_items: usize) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let fail = |what: &str| Err(format!("{what}: {req:?} -> {text}"));
    match req {
        Req::Recommend { user, n, explain } => {
            let resp: RecommendResponse =
                serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
            let [result] = resp.results.as_slice() else {
                return fail("expected one result");
            };
            if result.user != *user || result.items.len() > *n {
                return fail("wrong user or too many items");
            }
            let mut seen = std::collections::HashSet::new();
            for (k, item) in result.items.iter().enumerate() {
                let ordered = k == 0 || {
                    let prev = &result.items[k - 1];
                    prev.score > item.score || (prev.score == item.score && prev.item < item.item)
                };
                if (item.item as usize) >= n_items
                    || !seen.insert(item.item)
                    || !item.score.is_finite()
                    || !(0.0..=1.0).contains(&item.confidence)
                    || !ordered
                {
                    return fail("bad or misordered item");
                }
                match (&item.explanation, explain) {
                    (Some(e), true) if !e.text.is_empty() && !e.interface.is_empty() => {}
                    (None, false) => {}
                    _ => return fail("explanation present iff requested"),
                }
            }
            Ok(())
        }
        Req::Explain {
            user,
            item,
            interface,
            aim,
        } => {
            let resp: ExplainResponse =
                serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
            let interface_ok = interface.is_none_or(|i| resp.explanation.interface == i);
            if resp.user != *user
                || resp.item != *item
                || !resp.score.is_finite()
                || !(0.0..=1.0).contains(&resp.confidence)
                || resp.explanation.text.is_empty()
                || !interface_ok
                || resp.aim.as_deref() != *aim
            {
                return fail("bad explanation");
            }
            Ok(())
        }
        Req::Rate { .. } | Req::RateBatch(_) => {
            let resp: RateResponse =
                serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
            let ops = req.write_pairs().len() as u64;
            if resp.ops != ops || resp.applied > ops || resp.revision == 0 {
                return fail("bad write acknowledgement");
            }
            Ok(())
        }
    }
}

/// Runs `req` directly against `app` and returns the body the server
/// would send for it (the server serialises with `serde_json` too).
pub fn direct(app: &ExplainApp, req: &Req) -> Result<String, String> {
    let body = req.body();
    let far = Deadline::after_ms(60_000);
    let parse_err = |e: serde_json::Error| format!("{e}: {body}");
    let out = match req {
        Req::Recommend { .. } => {
            let parsed: RecommendRequest = serde_json::from_str(&body).map_err(parse_err)?;
            app.recommend(&parsed, far)
                .map(|r| serde_json::to_string(&r))
        }
        Req::Explain { .. } => {
            let parsed: ExplainRequest = serde_json::from_str(&body).map_err(parse_err)?;
            app.explain(&parsed, far).map(|r| serde_json::to_string(&r))
        }
        Req::Rate { .. } => {
            let parsed: RateRequest = serde_json::from_str(&body).map_err(parse_err)?;
            app.rate(&parsed, far).map(|r| serde_json::to_string(&r))
        }
        Req::RateBatch(_) => {
            let parsed: RateBatchRequest = serde_json::from_str(&body).map_err(parse_err)?;
            app.rate_batch(&parsed, far)
                .map(|r| serde_json::to_string(&r))
        }
    };
    match out {
        Ok(Ok(text)) => Ok(text),
        Ok(Err(e)) => Err(format!("serialising {req:?}: {e}")),
        Err(e) => Err(format!("direct call {req:?} failed: {e:?}")),
    }
}
