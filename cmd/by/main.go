// Command by is the bypass-yield federation's client and the driver of
// its evaluation, one subcommand per job: `by` alone lists them, `by
// <subcommand> -h` lists a subcommand's flags. Each subcommand declares
// only the flags it reads, so a flag that would do nothing there is
// refused ("flag provided but not defined") instead of ignored. The
// daemons it talks to are byproxyd and bydbd.
//
//	by bench -exp fig9 -scale 10
//	by query -addr localhost:7100 "select ra, dec from photoobj where ra < 10"
//	by watch -addr localhost:7100 -every 2s
//
// by with no subcommand, or an unknown one, lists the subcommands and
// exits 2, as does a command line a subcommand refuses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// env is what a subcommand reads and writes besides its flags. ctx ends
// the commands that run until stopped (watch, synth).
type env struct {
	ctx            context.Context
	stdin          io.Reader
	stdout, stderr io.Writer
}

// A command is one subcommand. flags declares its flags on fs and
// returns what runs once they are parsed, given what is left of the
// command line: positional arguments, which only a command with args
// takes.
type command struct {
	name, summary string
	args          bool
	flags         func(fs *flag.FlagSet) func(e env, args []string) error
}

// commands is the binary's surface, in the order the usage lists it.
var commands = []command{
	{"bench", "regenerate the paper's figures and tables, and the extensions", false, benchFlags},
	{"trace", "synthesize an SDSS-like workload trace (JSONL)", false, traceFlags},
	{"analyze", "analyze a trace: class mix, yields, locality, containment", false, analyzeFlags},
	{"query", "send a statement (or stdin's, one a line) to a proxy", true, queryFlags},
	{"stats", "print a proxy's flow accounting", false, statsFlags},
	{"replay", "replay a trace against a proxy; -audit diffs it with the counterfactuals", false, replayFlags},
	{"metrics", "print a daemon's metrics snapshot", false, metricsFlags},
	{"watch", "re-scrape a daemon's metrics and print what moved", false, watchFlags},
	{"decisions", "print a proxy's decision ledger, savings and regret", false, decisionsFlags},
	{"tail", "print a daemon's tail-latency attribution and slowest exemplars", false, tailFlags},
	{"federation", "scrape every daemon of a federation, check Σ yields = D_A, merge traces", false, federationFlags},
	{"exemplars", "merge the daemons' exemplar logs by trace id, offline", false, exemplarsFlags},
	{"synth", "drive a synthesized scenario open-loop against a proxy", false, synthFlags},
}

// usageError is a command line run refuses: no subcommand, an unknown
// one, or a flag or argument the subcommand does not take. run has
// printed it, with the usage, by the time it returns one.
type usageError struct{ error }

// run runs one command line, argv without the program's name.
func run(e env, argv []string) error {
	err := errors.New("no subcommand")
	var cmd *command
	if len(argv) > 0 {
		err = fmt.Errorf("unknown subcommand %q", argv[0])
		for i := range commands {
			if commands[i].name == argv[0] {
				cmd = &commands[i]
			}
		}
	}
	if cmd == nil {
		fmt.Fprintf(e.stderr, "by: %v\n\n", err)
		usage(e.stderr)
		return usageError{err}
	}
	fs := flag.NewFlagSet("by "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	exec := cmd.flags(fs)
	if err := fs.Parse(argv[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err} // the flag package printed it
	}
	if !cmd.args && fs.NArg() > 0 {
		err := fmt.Errorf("by %s takes no arguments, got %q", cmd.name, fs.Args())
		fmt.Fprintln(e.stderr, err)
		fs.Usage()
		return usageError{err}
	}
	return exec(e, fs.Args())
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: by <subcommand> [flags] [arguments]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\n`by <subcommand> -h` lists a subcommand's flags.")
}

func main() {
	err := run(env{context.Background(), os.Stdin, os.Stdout, os.Stderr}, os.Args[1:])
	var ue usageError
	switch {
	case err == nil:
	case errors.As(err, &ue):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "by:", err)
		os.Exit(1)
	}
}

// writeJSON prints v as indented JSON and a newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// head is a ranking's first n entries, or all of them when there are
// fewer.
func head[T any](xs []T, n int) []T { return xs[:min(n, len(xs))] }
