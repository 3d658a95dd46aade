package cli

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCollectorName(t *testing.T) {
	cases := map[string]string{
		"/data/rrc00.rib.mrt":          "rrc00",
		"route-views2.updates.mrt":     "route-views2",
		"plain":                        "plain",
		"/deep/path/rrc21.2024.q4.mrt": "rrc21",
		".hidden":                      ".hidden", // no name before the dot: keep as-is
	}
	for in, want := range cases {
		if got := collectorName(in); got != want {
			t.Errorf("collectorName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLoadSources(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "rrc00.rib.mrt")
	if err := os.WriteFile(p, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	srcs := LoadSources("test", []string{p})
	if len(srcs) != 1 || srcs[0].Collector != "rrc00" || len(srcs[0].Data) != 3 {
		t.Errorf("sources = %+v", srcs)
	}
}

func TestObsDisabled(t *testing.T) {
	o := &Obs{Tool: "test"}
	o.Start()
	if o.Enabled() || o.Root != nil || o.Registry != nil {
		t.Error("disabled Obs must not allocate telemetry")
	}
	// The nil Root/Registry must be usable downstream.
	o.Root.Child("x").End()
	o.Registry.Counter("c").Inc()
	o.Finish() // must not write anything or crash
}

func TestObsTraceReport(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")
	o := &Obs{Tool: "test", TracePath: trace}
	o.Start()
	if o.Root == nil || o.Registry == nil {
		t.Fatal("enabled Obs must build root and registry")
	}
	sp := o.Root.Child("stage")
	sp.SetAttr("n", 7)
	sp.End()
	o.Registry.Counter("c", "k", "v").Add(3)
	o.Finish()

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tool string `json:"tool"`
		Span struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"span"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, data)
	}
	if rep.Tool != "test" || rep.Span.Name != "test" {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Span.Children) != 1 || rep.Span.Children[0].Name != "stage" {
		t.Errorf("span children = %+v", rep.Span.Children)
	}
	if rep.Metrics.Counters["c{k=v}"] != 3 {
		t.Errorf("counters = %+v", rep.Metrics.Counters)
	}
}

func TestObsEnabledSurfaces(t *testing.T) {
	cases := []struct {
		name string
		o    Obs
		want bool
	}{
		{"off", Obs{}, false},
		{"trace", Obs{TracePath: "x"}, true},
		{"verbose", Obs{Verbose: true}, true},
		{"trace-out", Obs{TraceOut: "x"}, true},
		{"listen", Obs{Listen: ":0"}, true},
		{"sample", Obs{Sample: time.Second}, true},
		{"profiles only", Obs{CPUProfile: "x"}, false},
		{"progress only", Obs{ProgressOn: true}, false},
	}
	for _, tc := range cases {
		if got := tc.o.Enabled(); got != tc.want {
			t.Errorf("%s: Enabled() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestObsTraceOut(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run.trace.json")
	o := &Obs{Tool: "test", TraceOut: out}
	o.Start()
	if o.Root == nil || o.Registry == nil {
		t.Fatal("-trace-out alone must enable the span tree")
	}
	sp := o.Root.Child("stage")
	sp.End()
	o.Finish()

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace-out not valid JSON: %v\n%s", err, data)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	if !names["test"] || !names["stage"] {
		t.Errorf("trace events missing spans: %+v", trace.TraceEvents)
	}
}

func TestObsListenAndSample(t *testing.T) {
	o := &Obs{Tool: "test", Listen: "127.0.0.1:0", Sample: time.Hour}
	o.Start()
	if o.server == nil || o.server.Addr == "" {
		t.Fatal("-listen must start the debug server")
	}
	if o.sampler == nil {
		t.Fatal("-sample must start the sampler")
	}
	// The synchronous first sample lands before Start returns, so a
	// scrape mid-run sees runtime health immediately.
	resp, err := http.Get("http://" + o.server.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "atom_runtime_goroutines") {
		t.Errorf("/metrics missing sampled runtime gauge:\n%s", body)
	}
	if !strings.Contains(string(body), "atom_runtime_samples_total 1") {
		t.Errorf("/metrics missing sampler tick counter:\n%s", body)
	}
	addr := o.server.Addr
	o.Finish()
	if o.sampler != nil || o.server != nil {
		t.Error("Finish must release sampler and server")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("debug server still serving after Finish")
	}
}

func TestObsProgress(t *testing.T) {
	o := &Obs{Tool: "test"}
	o.Start()
	if o.Progress != nil {
		t.Error("progress stream without -progress")
	}
	o.Finish()

	o = &Obs{Tool: "test", ProgressOn: true}
	o.Start()
	if o.Progress == nil {
		t.Fatal("-progress must build the stream")
	}
	o.Finish()
	if o.Progress != nil {
		t.Error("Finish must release the progress stream")
	}
}

func TestObsProfiles(t *testing.T) {
	dir := t.TempDir()
	o := &Obs{Tool: "test", CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	o.Start()
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	o.Finish()
	for _, p := range []string{o.CPUProfile, o.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
