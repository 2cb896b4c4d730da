package client

import (
	"strings"
	"testing"

	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/vr"
	"repro/internal/wire"
)

func TestParseRakeAdd(t *testing.T) {
	cmd, err := parseCommand("rake add -3,0.6,1 -3,0.6,14 10 streamline")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdAddRake {
		t.Fatalf("kind = %v", cmd.Kind)
	}
	if !cmd.P0.ApproxEqual(vmath.V3(-3, 0.6, 1), 1e-5) ||
		!cmd.P1.ApproxEqual(vmath.V3(-3, 0.6, 14), 1e-5) {
		t.Errorf("endpoints %v %v", cmd.P0, cmd.P1)
	}
	if cmd.NumSeeds != 10 || cmd.Tool != uint8(integrate.ToolStreamline) {
		t.Errorf("seeds=%d tool=%d", cmd.NumSeeds, cmd.Tool)
	}
}

func TestParseToolAliases(t *testing.T) {
	for _, tc := range []struct {
		name string
		want integrate.ToolKind
	}{
		{"streamline", integrate.ToolStreamline},
		{"path", integrate.ToolParticlePath},
		{"particle-path", integrate.ToolParticlePath},
		{"streak", integrate.ToolStreakline},
		{"smoke", integrate.ToolStreakline},
	} {
		cmd, err := parseCommand("rake add 0,0,0 1,0,0 5 " + tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cmd.Tool != uint8(tc.want) {
			t.Errorf("%s -> tool %d, want %d", tc.name, cmd.Tool, tc.want)
		}
	}
}

func TestParseGrabReleaseMove(t *testing.T) {
	cmd, err := parseCommand("grab 3 end1")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdGrab || cmd.Rake != 3 || cmd.Grab != uint8(integrate.GrabEnd1) {
		t.Errorf("grab = %+v", cmd)
	}
	cmd, err = parseCommand("release 3")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdRelease || cmd.Rake != 3 {
		t.Errorf("release = %+v", cmd)
	}
	cmd, err = parseCommand("move 3 1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdMove || cmd.Pos != vmath.V3(1, 2, 3) {
		t.Errorf("move = %+v", cmd)
	}
}

func TestParseTimeControl(t *testing.T) {
	cmd, err := parseCommand("play -2.5")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdSetSpeed || cmd.Value != -2.5 {
		t.Errorf("play = %+v", cmd)
	}
	cmd, err = parseCommand("stop")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdSetPlaying || cmd.Flag != 0 {
		t.Errorf("stop = %+v", cmd)
	}
	cmd, err = parseCommand("seek 42")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdSeek || cmd.Value != 42 {
		t.Errorf("seek = %+v", cmd)
	}
	cmd, err = parseCommand("loop off")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdSetLoop || cmd.Flag != 0 {
		t.Errorf("loop = %+v", cmd)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"explode",
		"rake",
		"rake add 1,2 3,4,5 5 streamline", // bad vector
		"rake add 1,2,3 4,5,6 0 streamline",
		"rake add 1,2,3 4,5,6 5 warp",
		"grab x center",
		"grab 1 middle",
		"move 1 a,b,c",
		"play fast",
		"seek soon",
		"loop maybe",
		"release",
		"rake rm",
		"rake seeds 1 zero",
	}
	for _, line := range bad {
		if _, err := parseCommand(line); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
}

// TestParseCommandErrorTable pins the diagnostic each error class
// produces, so a typo at the console tells the user what to fix:
// unknown verbs name the verb, arity errors show the usage line, and
// malformed numbers quote the offending token.
func TestParseCommandErrorTable(t *testing.T) {
	cases := []struct {
		name    string
		line    string
		wantMsg string
	}{
		// Unknown verbs.
		{"unknown verb", "explode now", `unknown command "explode"`},
		{"unknown rake subcommand", "rake launch 1", `unknown rake subcommand "launch"`},
		{"unknown tool", "rake add 0,0,0 1,1,1 5 warp", `unknown tool "warp"`},
		{"unknown grab point", "grab 1 middle", `bad grab point "middle"`},
		// Bad arity.
		{"rake add missing tool", "rake add 0,0,0 1,1,1 5", "rake add P0 P1 N TOOL"},
		{"rake add extra arg", "rake add 0,0,0 1,1,1 5 streamline extra", "rake add P0 P1 N TOOL"},
		{"rake bare", "rake", "rake add|rm|seeds"},
		{"grab missing point", "grab 1", "grab ID center|end0|end1"},
		{"release extra", "release 1 2", "release ID"},
		{"move missing pos", "move 1", "move ID X,Y,Z"},
		{"play two speeds", "play 1 2", "play [SPEED]"},
		{"seek bare", "seek", "seek T"},
		{"loop bare", "loop", "loop on|off"},
		{"empty line", "", "empty command"},
		// Malformed numbers.
		{"vector arity", "rake add 1,2 3,4,5 5 streamline", `bad vector "1,2"`},
		{"vector component", "move 1 1,two,3", `bad vector component "two"`},
		{"seed count word", "rake add 0,0,0 1,1,1 many streamline", `bad seed count "many"`},
		{"seed count zero", "rake seeds 1 0", `bad seed count "0"`},
		{"rake id word", "grab x center", `bad rake id "x"`},
		{"rake id negative", "release -1", `bad rake id "-1"`},
		{"speed word", "play fast", `bad speed "fast"`},
		{"seek word", "seek soon", `bad time "soon"`},
		{"loop maybe", "loop maybe", "loop on|off"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseCommand(tc.line)
			if err == nil {
				t.Fatalf("%q accepted", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestParseScriptErrorTable: script-level failures carry the line
// number of the bad command past comments and blank lines.
func TestParseScriptErrorTable(t *testing.T) {
	cases := []struct {
		name    string
		script  string
		wantMsg string
	}{
		{"bad verb on line 2", "stop\nbroken line here\n", `line 2: client: unknown command "broken"`},
		{"bad number after comments", "# intro\n\nseek soon\n", `line 3: client: bad time "soon"`},
		{"arity after good lines", "stop\nloop on\ngrab 1\n", "line 3: client: grab ID center|end0|end1"},
		{"comment does not hide error", "play 1 # then\nrake add 1,2 3,4,5 5 streamline\n", `line 2: client: bad vector "1,2"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScript(strings.NewReader(tc.script))
			if err == nil {
				t.Fatal("script accepted")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not contain %q", err, tc.wantMsg)
			}
		})
	}
}

func TestParseScript(t *testing.T) {
	script := `
# set the scene
rake add -3,0.6,1 -3,0.6,14 10 streamline
rake add -2,-0.8,2 -2,-0.8,12 6 smoke   # wake smoke
play 2

grab 1 center
move 1 0,1,7
release 1
stop
`
	cmds, err := ParseScript(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	// play expands to speed + playing, so: 2 rakes + 2 + grab + move +
	// release + stop = 8.
	if len(cmds) != 8 {
		t.Fatalf("commands = %d, want 8", len(cmds))
	}
	if cmds[2].Kind != wire.CmdSetSpeed || cmds[3].Kind != wire.CmdSetPlaying || cmds[3].Flag != 1 {
		t.Errorf("play did not expand: %+v %+v", cmds[2], cmds[3])
	}
}

func TestParseScriptErrorsWithLineNumber(t *testing.T) {
	_, err := ParseScript(strings.NewReader("stop\nbroken line here\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", err)
	}
}

func TestScriptDrivesServer(t *testing.T) {
	// End-to-end: a console script manipulates the shared environment.
	w := connect(t, startSystem(t, 4))
	cmds, err := ParseScript(strings.NewReader(`
rake add -3,0,0 3,0,0 5 streamline
play 1
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		w.Queue(c)
	}
	if err := w.NetStep(vr.Pose{}); err != nil {
		t.Fatal(err)
	}
	state, _ := w.Latest()
	if len(state.Rakes) != 1 || !state.Time.Playing {
		t.Errorf("script did not take: rakes=%d playing=%v", len(state.Rakes), state.Time.Playing)
	}
}

func TestParseRakeTool(t *testing.T) {
	cmd, err := parseCommand("rake tool 2 smoke")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Kind != wire.CmdSetTool || cmd.Rake != 2 || cmd.Tool != uint8(integrate.ToolStreakline) {
		t.Errorf("cmd = %+v", cmd)
	}
	if _, err := parseCommand("rake tool 2 warp"); err == nil {
		t.Error("bad tool accepted")
	}
}
