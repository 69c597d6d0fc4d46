//! The embedded dashboard: one self-contained HTML page served at
//! `GET /` when the daemon runs with [`crate::ServeConfig::web`].
//!
//! Deliberately dependency-free — no framework, no bundler, no CDN
//! fetch — so `rebert serve --web` works on an air-gapped bench
//! machine. The page polls `GET /debug/stats` and draws whatever metric
//! families it returns, knowing none of them by name: a tile for each
//! unlabelled family and a table for each labelled one. It drives
//! `POST /recover/stream` for the live phase waterfall and the
//! recovered-word bit heatmap.

/// The whole dashboard, inlined at compile time.
pub const DASHBOARD_HTML: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>rebert · live</title>
<style>
  :root {
    --bg: #0d1117; --panel: #161b22; --edge: #30363d; --ink: #c9d1d9;
    --dim: #8b949e; --accent: #58a6ff; --ok: #3fb950; --warn: #d29922;
    --bad: #f85149; --mono: ui-monospace, SFMono-Regular, Menlo, monospace;
  }
  * { box-sizing: border-box; }
  body { margin: 0; background: var(--bg); color: var(--ink);
         font: 14px/1.45 var(--mono); }
  header { display: flex; align-items: baseline; gap: 12px;
           padding: 14px 20px; border-bottom: 1px solid var(--edge); }
  header h1 { margin: 0; font-size: 16px; font-weight: 600; }
  header .sub { color: var(--dim); font-size: 12px; }
  main { padding: 16px 20px; max-width: 1180px; margin: 0 auto; }
  section { margin-bottom: 22px; }
  h2 { font-size: 12px; font-weight: 600; text-transform: uppercase;
       letter-spacing: .08em; color: var(--dim); margin: 0 0 8px; }
  .tiles { display: grid; gap: 10px;
           grid-template-columns: repeat(auto-fill, minmax(150px, 1fr)); }
  .tile { background: var(--panel); border: 1px solid var(--edge);
          border-radius: 6px; padding: 10px 12px; }
  .tile .v { font-size: 22px; font-weight: 600; }
  .tile .k { color: var(--dim); font-size: 11px; margin-top: 2px; }
  table { border-collapse: collapse; width: 100%; margin-bottom: 14px;
          background: var(--panel); border: 1px solid var(--edge);
          border-radius: 6px; overflow: hidden; }
  th, td { text-align: left; padding: 5px 10px; font-size: 12px;
           border-bottom: 1px solid var(--edge); }
  th { color: var(--dim); font-weight: 600; }
  tr:last-child td { border-bottom: none; }
  td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
  textarea { width: 100%; min-height: 130px; background: var(--panel);
             color: var(--ink); border: 1px solid var(--edge);
             border-radius: 6px; padding: 8px; font: 12px var(--mono);
             resize: vertical; }
  button { background: var(--accent); color: #0d1117; border: 0;
           border-radius: 6px; padding: 7px 16px; font: 600 13px var(--mono);
           cursor: pointer; margin-top: 8px; }
  button:disabled { opacity: .4; cursor: default; }
  #waterfall { margin-top: 12px; }
  .wf-row { display: flex; align-items: center; gap: 8px; margin: 3px 0; }
  .wf-name { width: 80px; color: var(--dim); font-size: 12px; }
  .wf-track { flex: 1; height: 14px; background: var(--panel);
              border: 1px solid var(--edge); border-radius: 3px;
              position: relative; overflow: hidden; }
  .wf-bar { position: absolute; top: 0; bottom: 0; border-radius: 2px;
            background: var(--accent); opacity: .85; min-width: 2px; }
  .wf-bar.live { background: var(--warn); }
  .wf-us { width: 90px; text-align: right; color: var(--dim);
           font-size: 11px; }
  #scorebar { height: 8px; background: var(--panel);
              border: 1px solid var(--edge); border-radius: 4px;
              overflow: hidden; margin-top: 8px; }
  #scorebar > div { height: 100%; width: 0; background: var(--ok);
                    transition: width .15s; }
  #streamlog { max-height: 160px; overflow-y: auto; font-size: 11px;
               color: var(--dim); background: var(--panel);
               border: 1px solid var(--edge); border-radius: 6px;
               padding: 6px 10px; margin-top: 10px;
               white-space: pre-wrap; }
  #heatmap { display: grid; gap: 2px; margin-top: 10px; }
  .hm-row { display: flex; gap: 2px; align-items: center; }
  .hm-label { width: 60px; font-size: 10px; color: var(--dim);
              text-align: right; padding-right: 6px; }
  .hm-cell { width: 14px; height: 14px; border-radius: 2px;
             background: #21262d; }
  .hm-cell.on { background: var(--ok); }
  .err { color: var(--bad); }
  .muted { color: var(--dim); }
</style>
</head>
<body>
<header>
  <h1>rebert</h1>
  <div class="sub">gate-level → word-level recovery · live plane</div>
  <div class="sub" id="conn" style="margin-left:auto">connecting…</div>
</header>
<main>
  <section>
    <h2>Daemon</h2>
    <div class="tiles" id="tiles"></div>
  </section>
  <section id="families"></section>
  <section>
    <h2>Watch a recovery</h2>
    <textarea id="netlist" spellcheck="false"
      placeholder="# paste a .bench or Verilog netlist, then Recover&#10;INPUT(a0)&#10;INPUT(b0)&#10;s0 = XOR(a0, b0)&#10;OUTPUT(s0)"></textarea>
    <button id="go">Recover (streaming)</button>
    <div id="scorebar"><div></div></div>
    <div id="waterfall"></div>
    <div id="streamlog" hidden></div>
    <div id="result"></div>
    <div id="heatmap"></div>
  </section>
</main>
<script>
"use strict";
const $ = (s) => document.querySelector(s);
const fmt = (v) => v >= 1e6 ? (v / 1e6).toFixed(1) + "M"
  : v >= 1e3 ? (v / 1e3).toFixed(1) + "k" : String(v);
// Label values come from request headers: escape before drawing.
const esc = (v) => String(v).replace(/[&<>"]/g, (c) => "&#" + c.charCodeAt(0) + ";");
const num = (v) => typeof v !== "number" ? esc(v)
  : v >= 1e3 || Number.isInteger(v) ? fmt(v) : String(+v.toPrecision(3));
const cell = (v) => (typeof v === "number" ? '<td class="num">' : "<td>") + num(v) + "</td>";

// One table per labelled family: a column per key any series carries.
function table(key, rows) {
  const cols = [...new Set(rows.flatMap(Object.keys))];
  return "<h2>" + esc(key) + "</h2>" + (rows.length
    ? "<table><thead><tr>" + cols.map((c) => "<th>" + esc(c) + "</th>").join("") +
      "</tr></thead><tbody>" + rows.map((r) => "<tr>" +
        cols.map((c) => c in r ? cell(r[c]) : "<td></td>").join("") + "</tr>").join("") +
      "</tbody></table>"
    : '<p class="muted">no series yet</p>');
}

async function poll() {
  try {
    const r = await fetch("/debug/stats");
    const s = await r.json();
    $("#conn").textContent = "live";
    $("#conn").className = "sub";
    let tiles = "", tables = "";
    for (const [key, v] of Object.entries(s)) {
      if (Array.isArray(v)) tables += table(key, v);
      else tiles += '<div class="tile"><div class="v">' + num(v) +
        '</div><div class="k">' + esc(key) + "</div></div>";
    }
    $("#tiles").innerHTML = tiles;
    $("#families").innerHTML = tables;
  } catch (err) {
    $("#conn").textContent = "unreachable";
    $("#conn").className = "sub err";
  }
}
poll();
setInterval(poll, 2000);

// --- streaming recovery -------------------------------------------------
const phases = ["tokenize", "filter", "score", "group"];
let wf = null;

function resetWaterfall() {
  wf = { t0: null, spans: {} };
  $("#waterfall").innerHTML = phases.map((p) =>
    '<div class="wf-row"><div class="wf-name">' + p +
    '</div><div class="wf-track" id="wf-' + p +
    '"></div><div class="wf-us" id="us-' + p + '"></div></div>').join("");
  $("#scorebar > div").style.width = "0";
  $("#result").textContent = "";
  $("#heatmap").innerHTML = "";
  $("#streamlog").hidden = false;
  $("#streamlog").textContent = "";
}

function logLine(text) {
  const el = $("#streamlog");
  el.textContent += text + "\n";
  el.scrollTop = el.scrollHeight;
}

function drawWaterfall(now) {
  const span = Math.max(now - wf.t0, 1);
  for (const p of phases) {
    const s = wf.spans[p];
    if (!s) continue;
    const end = s.end == null ? now : s.end;
    const left = ((s.begin - wf.t0) / span) * 100;
    const width = Math.max(((end - s.begin) / span) * 100, 0.5);
    $("#wf-" + p).innerHTML = '<div class="wf-bar' +
      (s.end == null ? " live" : "") + '" style="left:' + left +
      "%;width:" + width + '%"></div>';
    $("#us-" + p).textContent = s.end == null
      ? "…" : ((s.end - s.begin) / 1000).toFixed(1) + "ms";
  }
}

function onRecord(rec) {
  if (rec.type === "meta") {
    logLine("meta: " + rec.design + " · " + rec.bits + " bits · model " +
      rec.model_fingerprint.slice(0, 12));
    return;
  }
  if (rec.type === "error") {
    logLine("error: " + rec.error);
    $("#result").innerHTML = '<span class="err">' + rec.error + "</span>";
    return;
  }
  if (rec.type !== "progress") return;
  if (wf.t0 == null) wf.t0 = rec.ts_us;
  if (rec.event === "begin" && phases.includes(rec.phase)) {
    wf.spans[rec.phase] = { begin: rec.ts_us, end: null };
  } else if (rec.event === "end" && wf.spans[rec.phase]) {
    wf.spans[rec.phase].end = rec.ts_us;
  } else if (rec.event === "scoring") {
    $("#scorebar > div").style.width = rec.percent.toFixed(1) + "%";
    logLine("scoring " + rec.done + "/" + rec.total + " pairs (" +
      rec.percent.toFixed(1) + "%)");
  } else if (rec.event === "update") {
    logLine("progress: " + rec.phase + " " + rec.pct + "%" +
      (rec.cache_hits != null
        ? " · cache " + rec.cache_hits + " hits / " + rec.cache_misses +
          " misses" : ""));
  }
  drawWaterfall(rec.ts_us);
}

function drawHeatmap(result) {
  const words = result.words || [];
  const names = result.names || [];
  const bits = result.bits || 0;
  if (!words.length) return;
  const index = {};
  names.forEach((n, i) => { index[i] = n; });
  let html = "";
  words.forEach((word, w) => {
    const on = new Set(word);
    let cells = "";
    for (let b = 0; b < bits; b++) {
      const hit = on.has(b);
      cells += '<div class="hm-cell' + (hit ? " on" : "") + '" title="' +
        (index[b] || "bit " + b) + (hit ? " ∈ " : " ∉ ") + "word " + w +
        '"></div>';
    }
    html += '<div class="hm-row"><div class="hm-label">w' + w +
      "</div>" + cells + "</div>";
  });
  $("#heatmap").innerHTML = html;
}

$("#go").addEventListener("click", async () => {
  const text = $("#netlist").value;
  if (!text.trim()) return;
  $("#go").disabled = true;
  resetWaterfall();
  try {
    const resp = await fetch("/recover/stream", { method: "POST", body: text });
    if (!resp.ok) {
      $("#result").innerHTML = '<span class="err">HTTP ' + resp.status +
        ": " + (await resp.text()) + "</span>";
      return;
    }
    const reader = resp.body.getReader();
    const decoder = new TextDecoder();
    let buf = "";
    let final = null;
    for (;;) {
      const { done, value } = await reader.read();
      if (done) break;
      buf += decoder.decode(value, { stream: true });
      let nl;
      while ((nl = buf.indexOf("\n")) >= 0) {
        const line = buf.slice(0, nl).trim();
        buf = buf.slice(nl + 1);
        if (!line) continue;
        const rec = JSON.parse(line);
        if (rec.type) onRecord(rec);
        else final = rec;
      }
    }
    if (final) {
      const st = final.stats;
      $("#result").textContent = "recovered " + final.words.length +
        " words from " + final.bits + " bits in " +
        (st.elapsed_us / 1000).toFixed(1) + "ms (" + st.backend + ", " +
        fmt(st.pairs_scored) + " pairs scored)";
      drawHeatmap(final);
      $("#scorebar > div").style.width = "100%";
    }
  } catch (err) {
    $("#result").innerHTML = '<span class="err">' + err + "</span>";
  } finally {
    $("#go").disabled = false;
  }
});
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, Snapshot};
    use rebert::json::Json;

    #[test]
    fn dashboard_is_self_contained() {
        // No external fetches: everything the page needs ships in the
        // one constant, so `--web` works without network or assets.
        assert!(DASHBOARD_HTML.starts_with("<!doctype html>"));
        for forbidden in ["http://", "https://", "<link", "src=\"//"] {
            assert!(
                !DASHBOARD_HTML.contains(forbidden),
                "dashboard must not reference external resources (found `{forbidden}`)"
            );
        }
        // And it talks to the two live endpoints it documents.
        assert!(DASHBOARD_HTML.contains("/debug/stats"));
        assert!(DASHBOARD_HTML.contains("/recover/stream"));
        // It draws whatever families `/debug/stats` returns, so it
        // spells none of their keys.
        let stats = Metrics::new().debug_stats(&Snapshot::default());
        let Json::Obj(families) = stats else {
            panic!("`/debug/stats` is one object: {stats}")
        };
        for (key, _) in &families {
            assert!(
                !DASHBOARD_HTML.contains(key.as_str()),
                "dashboard spells the metric key `{key}`"
            );
        }
    }
}
