package server

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/integrate"
	"repro/internal/netsim"
	"repro/internal/store"
	"repro/internal/vmath"
)

// The plan vectors pin the governor's decisions case by case: each line
// of testdata/plan_vectors.json is a round's sources (grid, enabled
// tools, rakes by class), the governor's state (budget, pressure,
// ns/unit), and what the plan stage decided — tool stride, every rake's
// level / skip, the predicted demand, and the PlannedTime the round
// booked. They were generated through the three-site planner this
// ladder replaced and must reproduce exactly; a deliberate change to the
// ladder rewrites their want fields with the golden corpus's -update.

const planVectorsFile = "testdata/plan_vectors.json"

type planRake struct {
	Seeds   int   `json:"seeds"`
	Holder  int64 `json:"holder,omitempty"`
	Streak  int   `json:"streak"` // live particles; -1 = not a streakline
	Upgrade bool  `json:"upgrade,omitempty"`

	WantSeeds int  `json:"want_seeds"`
	WantSteps int  `json:"want_steps"`
	WantSkip  bool `json:"want_skip,omitempty"`
	// WantEngine is a retired column: shed rounds used to switch engines
	// by batch shape, now every round runs the configured engine. The
	// vectors keep the field so the file's bytes stand; it is carried
	// through unread.
	WantEngine string `json:"want_engine,omitempty"`
}

type planCase struct {
	Grid      [3]int  `json:"grid"`
	Method    uint8   `json:"method"`
	MaxSteps  int     `json:"max_steps"`
	Budget    int64   `json:"budget_ns"`
	Pressure  float64 `json:"pressure"`
	UnitNanos float64 `json:"unit_nanos"`

	Iso        bool  `json:"iso,omitempty"`
	Plane      bool  `json:"plane,omitempty"`
	PlaneAxis  uint8 `json:"plane_axis,omitempty"`
	Vortex     bool  `json:"vortex,omitempty"`
	ToolHolder int64 `json:"tool_holder,omitempty"` // iso grabbed: Active even with nothing enabled

	Rakes []planRake `json:"rakes"`

	WantStride    int   `json:"want_stride"`
	WantPredicted int64 `json:"want_predicted_ns"`
	WantPlanned   int64 `json:"want_planned_ns"`
}

// planCaseServer builds a server whose plan stage sees exactly the
// case's sources, without running a frame: the tool snapshot and the
// job list are injected the way collectLocked would leave them.
func planCaseServer(t *testing.T, c planCase) *Server {
	t.Helper()
	ni, nj, nk := c.Grid[0], c.Grid[1], c.Grid[2]
	g, err := grid.NewCartesian(ni, nj, nk, vmath.AABB{
		Max: vmath.V3(float32(ni-1), float32(nj-1), float32(nk-1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := field.NewUnsteady(g, []*field.Field{field.NewField(ni, nj, nk, field.GridCoords)}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store:  store.NewMemory(u),
		Budget: time.Duration(c.Budget),
		Clock:  netsim.NewManualClock(),
		Options: integrate.Options{
			Method: integrate.Method(c.Method), StepSize: 0.25, MaxSteps: c.MaxSteps, MinSpeed: 1e-6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.gov.unitNanos, s.gov.pressure = c.UnitNanos, c.Pressure
	s.toolSnap = env.ToolsState{
		{Params: env.ToolParams{Enabled: c.Iso, Value: 0.5}, Holder: c.ToolHolder},
		{Params: env.ToolParams{Enabled: c.Plane, Axis: c.PlaneAxis, Value: 0.5}},
		{Params: env.ToolParams{Enabled: c.Vortex, Value: 0.01}},
	}
	for _, r := range c.Rakes {
		j := rakeJob{
			gc:      &rakeGeom{seeds: make([]vmath.Vec3, r.Seeds)},
			snap:    env.RakeSnapshot{Holder: r.Holder},
			upgrade: r.Upgrade,
		}
		if r.Streak >= 0 {
			j.streak = integrate.NewStreak(maxStreakParticles)
			j.streak.Particles = make([]integrate.StreakParticle, r.Streak)
		}
		s.jobs = append(s.jobs, j)
	}
	return s
}

// runPlanCase runs the plan stage on the case and writes what it
// decided into the case's want fields.
func runPlanCase(t *testing.T, c planCase) planCase {
	t.Helper()
	s := planCaseServer(t, c)
	c.WantPredicted = int64(s.planJobsLocked())
	c.WantPlanned = int64(s.stats.PlannedTime)
	c.WantStride = 1
	for i, tool := range s.toolSnap {
		if tool.Params.Enabled {
			c.WantStride = s.rows[i].stride
		}
	}
	c.Rakes = append([]planRake(nil), c.Rakes...)
	for i, j := range s.jobs {
		r := &c.Rakes[i]
		r.WantSeeds, r.WantSteps, r.WantSkip = j.plan.level.Seeds, j.plan.level.Steps, j.plan.skip
	}
	return c
}

func TestPlanVectors(t *testing.T) {
	raw, err := os.ReadFile(planVectorsFile)
	if err != nil {
		t.Fatal(err)
	}
	var cases []planCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 200 {
		t.Fatalf("%d plan vectors, want at least 200", len(cases))
	}
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, c := range cases {
			line, err := json.Marshal(runPlanCase(t, c))
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(planVectorsFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, want := range cases {
		if got := runPlanCase(t, want); !reflect.DeepEqual(got, want) {
			t.Errorf("vector %d:\n got  %+v\n want %+v", i, got, want)
		}
	}
}
