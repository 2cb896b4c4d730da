package client

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/integrate"
	"repro/internal/vmath"
	"repro/internal/wire"
)

// Console parsing: the paper's §3 notes "The keyboard and mouse are
// also used as input devices to the virtual environment. The user can
// easily swing the boom away and interact with the computer in the
// usual way." This is that path: text commands become wire commands.
//
// Grammar (one command per line, '#' comments):
//
//	rake add P0 P1 N TOOL     e.g. rake add -3,0.6,1 -3,0.6,14 10 streamline
//	rake rm ID
//	rake seeds ID N
//	rake tool ID TOOL
//	grab ID center|end0|end1
//	release ID
//	move ID X,Y,Z
//	play [SPEED]              default 1; negative reverses
//	stop
//	seek T
//	loop on|off

// parseCommand parses one console line into a wire command.
func parseCommand(line string) (wire.Command, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return wire.Command{}, fmt.Errorf("client: empty command")
	}
	switch fields[0] {
	case "rake":
		return parseRake(fields[1:])
	case "grab":
		if len(fields) != 3 {
			return wire.Command{}, fmt.Errorf("client: grab ID center|end0|end1")
		}
		id, err := parseID(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		gp, err := parseGrab(fields[2])
		if err != nil {
			return wire.Command{}, err
		}
		return wire.Command{Kind: wire.CmdGrab, Rake: id, Grab: uint8(gp)}, nil
	case "release":
		if len(fields) != 2 {
			return wire.Command{}, fmt.Errorf("client: release ID")
		}
		id, err := parseID(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		return wire.Command{Kind: wire.CmdRelease, Rake: id}, nil
	case "move":
		if len(fields) != 3 {
			return wire.Command{}, fmt.Errorf("client: move ID X,Y,Z")
		}
		id, err := parseID(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		p, err := parseVec(fields[2])
		if err != nil {
			return wire.Command{}, err
		}
		return wire.Command{Kind: wire.CmdMove, Rake: id, Pos: p}, nil
	case "play":
		speed := float64(1)
		if len(fields) > 2 {
			return wire.Command{}, fmt.Errorf("client: play [SPEED]")
		}
		if len(fields) == 2 {
			var err error
			speed, err = strconv.ParseFloat(fields[1], 32)
			if err != nil {
				return wire.Command{}, fmt.Errorf("client: bad speed %q", fields[1])
			}
		}
		// Play encodes as a speed change; the caller follows with
		// SetPlaying(true) — see ParseScript, which expands it.
		return wire.Command{Kind: wire.CmdSetSpeed, Value: float32(speed)}, nil
	case "stop":
		return wire.Command{Kind: wire.CmdSetPlaying, Flag: 0}, nil
	case "seek":
		if len(fields) != 2 {
			return wire.Command{}, fmt.Errorf("client: seek T")
		}
		t, err := strconv.ParseFloat(fields[1], 32)
		if err != nil {
			return wire.Command{}, fmt.Errorf("client: bad time %q", fields[1])
		}
		return wire.Command{Kind: wire.CmdSeek, Value: float32(t)}, nil
	case "loop":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return wire.Command{}, fmt.Errorf("client: loop on|off")
		}
		flag := uint8(0)
		if fields[1] == "on" {
			flag = 1
		}
		return wire.Command{Kind: wire.CmdSetLoop, Flag: flag}, nil
	default:
		return wire.Command{}, fmt.Errorf("client: unknown command %q", fields[0])
	}
}

func parseRake(fields []string) (wire.Command, error) {
	if len(fields) == 0 {
		return wire.Command{}, fmt.Errorf("client: rake add|rm|seeds ...")
	}
	switch fields[0] {
	case "add":
		if len(fields) != 5 {
			return wire.Command{}, fmt.Errorf("client: rake add P0 P1 N TOOL")
		}
		p0, err := parseVec(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		p1, err := parseVec(fields[2])
		if err != nil {
			return wire.Command{}, err
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n < 1 {
			return wire.Command{}, fmt.Errorf("client: bad seed count %q", fields[3])
		}
		tool, err := parseTool(fields[4])
		if err != nil {
			return wire.Command{}, err
		}
		return wire.Command{
			Kind: wire.CmdAddRake, P0: p0, P1: p1,
			NumSeeds: uint32(n), Tool: uint8(tool),
		}, nil
	case "rm":
		if len(fields) != 2 {
			return wire.Command{}, fmt.Errorf("client: rake rm ID")
		}
		id, err := parseID(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		return wire.Command{Kind: wire.CmdRemoveRake, Rake: id}, nil
	case "tool":
		if len(fields) != 3 {
			return wire.Command{}, fmt.Errorf("client: rake tool ID TOOL")
		}
		id, err := parseID(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		tool, err := parseTool(fields[2])
		if err != nil {
			return wire.Command{}, err
		}
		return wire.Command{Kind: wire.CmdSetTool, Rake: id, Tool: uint8(tool)}, nil
	case "seeds":
		if len(fields) != 3 {
			return wire.Command{}, fmt.Errorf("client: rake seeds ID N")
		}
		id, err := parseID(fields[1])
		if err != nil {
			return wire.Command{}, err
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 1 {
			return wire.Command{}, fmt.Errorf("client: bad seed count %q", fields[2])
		}
		return wire.Command{Kind: wire.CmdSetSeeds, Rake: id, NumSeeds: uint32(n)}, nil
	default:
		return wire.Command{}, fmt.Errorf("client: unknown rake subcommand %q", fields[0])
	}
}

func parseVec(s string) (vmath.Vec3, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return vmath.Vec3{}, fmt.Errorf("client: bad vector %q (want X,Y,Z)", s)
	}
	var out [3]float32
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 32)
		if err != nil {
			return vmath.Vec3{}, fmt.Errorf("client: bad vector component %q", p)
		}
		out[i] = float32(v)
	}
	return vmath.Vec3{X: out[0], Y: out[1], Z: out[2]}, nil
}

func parseID(s string) (int32, error) {
	id, err := strconv.Atoi(s)
	if err != nil || id < 1 {
		return 0, fmt.Errorf("client: bad rake id %q", s)
	}
	return int32(id), nil
}

func parseGrab(s string) (integrate.GrabPoint, error) {
	switch s {
	case "center":
		return integrate.GrabCenter, nil
	case "end0":
		return integrate.GrabEnd0, nil
	case "end1":
		return integrate.GrabEnd1, nil
	default:
		return integrate.GrabNone, fmt.Errorf("client: bad grab point %q", s)
	}
}

func parseTool(s string) (integrate.ToolKind, error) {
	switch s {
	case "streamline":
		return integrate.ToolStreamline, nil
	case "path", "particle-path":
		return integrate.ToolParticlePath, nil
	case "streak", "streakline", "smoke":
		return integrate.ToolStreakline, nil
	default:
		return 0, fmt.Errorf("client: unknown tool %q", s)
	}
}

// ParseScript reads a whole command script (one command per line,
// blank lines and '#' comments ignored). "play" lines expand to the
// speed command plus a SetPlaying, matching Session.Play.
func ParseScript(r io.Reader) ([]wire.Command, error) {
	var out []wire.Command
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		cmd, err := parseCommand(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, cmd)
		if strings.HasPrefix(line, "play") {
			out = append(out, wire.Command{Kind: wire.CmdSetPlaying, Flag: 1})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: read script: %w", err)
	}
	return out, nil
}
