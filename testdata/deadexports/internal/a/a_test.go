package a

import "testing"

func TestDead(t *testing.T) { Dead() }
