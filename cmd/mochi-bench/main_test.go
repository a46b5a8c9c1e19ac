package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		stdout     []string // substrings that must appear
		stderr     []string
		noneRan    bool // stdout must not contain a "running" line
		flagsShown int  // when > 0, the number of flags -h must list
	}{
		{name: "one experiment, case-insensitive", args: []string{"-quick", "-only", " e6 "}, code: 0,
			stdout: []string{"running E6:", "E6 — ", "(E6 completed in"}},
		{name: "unknown ID runs nothing", args: []string{"-quick", "-only", "E99"}, code: 2, noneRan: true,
			stderr: []string{`unknown experiment "E99"`, "E1, E2,", "E12", "E14"}},
		{name: "unknown ID next to a known one runs nothing", args: []string{"-quick", "-only", "E6,E99"}, code: 2, noneRan: true,
			stderr: []string{`unknown experiment "E99"`}},
		{name: "E12 is registered", args: []string{"-quick", "-only", "E12,nope"}, code: 2, noneRan: true,
			stderr: []string{`unknown experiment "NOPE"`}},
		{name: "empty ID", args: []string{"-only", "E6,"}, code: 2, noneRan: true,
			stderr: []string{`unknown experiment ""`}},
		{name: "removed sweep flag", args: []string{"-throughput"}, code: 2, noneRan: true,
			stderr: []string{"flag provided but not defined"}},
		{name: "positional argument", args: []string{"-quick", "E6"}, code: 2, noneRan: true,
			stderr: []string{`unexpected argument "E6"`}},
		{name: "help lists two flags", args: []string{"-h"}, code: 2, noneRan: true, flagsShown: 2,
			stderr: []string{"-quick", "-only"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			if tc.noneRan && strings.Contains(stdout.String(), "running ") {
				t.Errorf("an experiment ran:\n%s", stdout.String())
			}
			if tc.flagsShown > 0 {
				if n := strings.Count(stderr.String(), "\n  -"); n != tc.flagsShown {
					t.Errorf("-h lists %d flags, want %d:\n%s", n, tc.flagsShown, stderr.String())
				}
			}
		})
	}
}
