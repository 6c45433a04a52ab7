package main

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"aware/internal/core"
)

// runSession drives the REPL with scripted input and returns its output.
func runSession(t *testing.T, script string, policy string) string {
	t.Helper()
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		inW.WriteString(script)
		inW.Close()
	}()
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<20)
		var out strings.Builder
		for {
			n, err := outR.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- out.String()
	}()
	if err := run("", 3000, 1, 0.05, policy, inR, outW); err != nil {
		t.Fatalf("run: %v", err)
	}
	outW.Close()
	return <-done
}

func TestREPLFullSession(t *testing.T) {
	script := strings.Join([]string{
		"help",
		"cols",
		"show gender",
		"viz gender where salary_over_50k=true",
		"viz gender where salary_over_50k=!true",
		"compare 2 3",
		"star 3",
		"means age 2 3",
		"delete 2",
		"gauge",
		"log",
		"bogus command",
		"viz gender where bad-token",
		"quit",
	}, "\n") + "\n"
	out := runSession(t, script, "epsilon-hybrid")
	for _, want := range []string{
		"AWARE — exploring",
		"gender, age, education",
		"[viz 1] gender",
		"[viz 2] gender | salary_over_50k = true",
		"risk gauge",
		"unknown command",
		"must look like column=value",
		"discoveries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q", want)
		}
	}
	// The journal printed by "log" pins which step each command applied.
	var kinds []string
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, `{"op":`)
		if i < 0 {
			continue
		}
		step, err := core.UnmarshalStep([]byte(line[i:]))
		if err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		kinds = append(kinds, step.Kind())
	}
	want := []string{
		"add_visualization", "add_visualization", "add_visualization",
		"compare_visualizations", "star", "compare_means", "declare_descriptive",
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("journal kinds = %v, want %v", kinds, want)
	}
}

func TestREPLArgumentErrors(t *testing.T) {
	script := strings.Join([]string{
		"show",
		"viz gender",
		"compare a b",
		"means age x y",
		"star x",
		"delete x",
		"show no_such_column",
		"quit",
	}, "\n") + "\n"
	out := runSession(t, script, "gamma-fixed")
	for _, want := range []string{
		"usage: show <attr>",
		"usage: viz",
		"visualization ids must be integers",
		"hypothesis id must be an integer",
		"column not found",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q", want)
		}
	}
}

func TestBuildPolicyNames(t *testing.T) {
	for _, name := range []string{"beta-farsighted", "gamma-fixed", "delta-hopeful", "epsilon-hybrid", "psi-support"} {
		p, err := buildPolicy(name, 0.05)
		if err != nil || p == nil {
			t.Errorf("buildPolicy(%q): %v", name, err)
		}
	}
	if _, err := buildPolicy("nope", 0.05); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := buildPolicy("gamma-fixed", 2); err == nil {
		t.Error("invalid alpha should error")
	}
}

func TestLoadTableFromCSV(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "mini*.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("city,segment\nparis,a\nparis,b\nlyon,a\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	table, err := loadTable(f.Name(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != 3 || !table.HasColumn("city") {
		t.Errorf("loaded table %v", table.Describe())
	}
	if _, err := loadTable("/no/such/file.csv", 0, 0); err == nil {
		t.Error("missing CSV should error")
	}
}
