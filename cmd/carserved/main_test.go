package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestFlagDefaults pins carserved's flags: names, defaults and usage text,
// byte for byte, against testdata/help.golden (the flag listing `carserved
// -help` prints below its "Usage of" line).
func TestFlagDefaults(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("carserved", flag.ContinueOnError)
	defineFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("flag listing differs from testdata/help.golden:\n%s", got.String())
	}
}
